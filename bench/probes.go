package main

import (
	"errors"
	"fmt"
	"time"

	"lazypoline/internal/bpf"
	"lazypoline/internal/cpu"
	"lazypoline/internal/fs"
	"lazypoline/internal/guest"
	"lazypoline/internal/isa"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
	"lazypoline/internal/netstack"
	"lazypoline/internal/zpoline"
)

// A probe times a fixed amount of work pushed through one layer's public
// entry points, away from any workload, so a change inside that layer
// shows even where a workload spends little time in it. Each probe
// returns the seconds its fixed work took; runProbes keeps the fastest
// of three.

const (
	probeCode = 0x1000
	probeData = 0x100000
)

// probeCPU maps code at probeCode and sixteen data pages at probeData.
func probeCPU(code []byte) (*cpu.CPU, error) {
	as := mem.NewAddressSpace()
	if err := as.MapFixed(probeCode, mem.PageSize, mem.ProtRX); err != nil {
		return nil, err
	}
	if err := as.WriteForce(probeCode, code); err != nil {
		return nil, err
	}
	if err := as.MapFixed(probeData, 16*mem.PageSize, mem.ProtRW); err != nil {
		return nil, err
	}
	c := cpu.New(as)
	c.RIP = probeCode
	return c, nil
}

// runBlocks retires insns instructions through StepBlock.
func runBlocks(c *cpu.CPU, insns uint64) (float64, error) {
	start := time.Now()
	for retired := uint64(0); retired < insns; {
		ev, n, _ := c.StepBlock(insns - retired)
		if ev != cpu.EvNone {
			return 0, fmt.Errorf("probe loop stopped with event %v (%v)", ev, c.FaultErr)
		}
		retired += n
	}
	return time.Since(start).Seconds(), nil
}

// selfLoop is the two-instruction countdown every fast-path tier is
// built for; it never ends within a probe.
func selfLoop() []byte {
	var e isa.Enc
	e.MovImm64(isa.RCX, 1<<60)
	loop := e.Len()
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	return e.Buf
}

// branchyLoop is a countdown whose body takes a forward branch two
// times in three, so it is several blocks and no fused self-loop.
func branchyLoop() []byte {
	var skipped isa.Enc
	skipped.Xor(isa.RBX, isa.RBX)

	var e isa.Enc
	e.MovImm64(isa.RCX, 1<<60)
	loop := e.Len()
	e.AddImm(isa.RBX, 1)
	e.CmpImm(isa.RBX, 3)
	e.Jl(int64(skipped.Len()))
	e.Buf = append(e.Buf, skipped.Buf...)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	return e.Buf
}

// xstateLoop saves and restores the extended state once per iteration.
func xstateLoop() []byte {
	var e isa.Enc
	e.MovImm64(isa.RDI, probeData)
	e.MovImm64(isa.RCX, 1<<60)
	loop := e.Len()
	e.Xsave(isa.RDI)
	e.Xrstor(isa.RDI)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	return e.Buf
}

func probeBlocks(code []byte, insns uint64) func() (float64, error) {
	return func() (float64, error) {
		c, err := probeCPU(code)
		if err != nil {
			return 0, err
		}
		return runBlocks(c, insns)
	}
}

func probeStep(insns int) func() (float64, error) {
	return func() (float64, error) {
		c, err := probeCPU(selfLoop())
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < insns; i++ {
			if ev := c.Step(); ev != cpu.EvNone {
				return 0, fmt.Errorf("step probe stopped with event %v (%v)", ev, c.FaultErr)
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

func probeMemAccess(ops int) func() (float64, error) {
	return func() (float64, error) {
		as := mem.NewAddressSpace()
		if err := as.MapFixed(probeData, 16*mem.PageSize, mem.ProtRW); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < ops/2; i++ {
			addr := probeData + uint64(i*64)%(16*mem.PageSize)
			if err := as.WriteU64(addr, uint64(i)); err != nil {
				return 0, err
			}
			if _, err := as.ReadU64(addr); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

// probeMemCopy moves 64 KiB, sixteen pages, in and out of guest memory.
func probeMemCopy(rounds int) func() (float64, error) {
	return func() (float64, error) {
		as := mem.NewAddressSpace()
		if err := as.MapFixed(probeData, 16*mem.PageSize, mem.ProtRW); err != nil {
			return 0, err
		}
		buf := make([]byte, 16*mem.PageSize)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := as.WriteAt(probeData, buf); err != nil {
				return 0, err
			}
			if err := as.ReadAt(probeData, buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

func probeMemMap(rounds, pages int) func() (float64, error) {
	return func() (float64, error) {
		as := mem.NewAddressSpace()
		length := uint64(pages) * mem.PageSize
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := as.MapFixed(probeData, length, mem.ProtRW); err != nil {
				return 0, err
			}
			if err := as.Unmap(probeData, length); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

// netPair is a connected client and server endpoint.
func netPair() (client, server *netstack.Endpoint, err error) {
	stack := netstack.NewStack()
	l, err := stack.Listen(9, 1)
	if err != nil {
		return nil, nil, err
	}
	client, err = stack.Connect(9)
	if err != nil {
		return nil, nil, err
	}
	server, err = l.Accept()
	return client, server, err
}

// exchange writes msg on one endpoint and reads all of it on the other.
func exchange(from, to *netstack.Endpoint, msg, buf []byte) error {
	if n, err := from.Write(msg); err != nil || n != len(msg) {
		return fmt.Errorf("netstack probe: wrote %d of %d bytes: %v", n, len(msg), err)
	}
	for got := 0; got < len(msg); {
		n, err := to.Read(buf)
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

func probeNetStream(rounds int) func() (float64, error) {
	return func() (float64, error) {
		client, server, err := netPair()
		if err != nil {
			return 0, err
		}
		msg, buf := make([]byte, 64<<10), make([]byte, 64<<10)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := exchange(server, client, msg, buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

func probeNetPingPong(ops int) func() (float64, error) {
	return func() (float64, error) {
		client, server, err := netPair()
		if err != nil {
			return 0, err
		}
		msg, buf := make([]byte, guest.RequestSize), make([]byte, guest.RequestSize)
		start := time.Now()
		for i := 0; i < ops/2; i++ {
			if err := exchange(client, server, msg, buf); err != nil {
				return 0, err
			}
			if err := exchange(server, client, msg, buf); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

const fsProbeSize = 256 << 10

func probeFSRead(rounds int) func() (float64, error) {
	return func() (float64, error) {
		f := fs.New(func() uint64 { return 0 })
		if err := f.WriteFile("/static", make([]byte, fsProbeSize), 0o644); err != nil {
			return 0, err
		}
		f.Seal()
		h, err := f.Open("/static", fs.OpenRead, 0)
		if err != nil {
			return 0, err
		}
		buf := make([]byte, 64<<10)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			for off := uint64(0); off < fsProbeSize; off += uint64(len(buf)) {
				if n, err := h.ReadAt(buf, off); err != nil || n != len(buf) {
					return 0, fmt.Errorf("fs probe: read %d bytes at %d: %v", n, off, err)
				}
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

// probeImage is the web-server guest, the largest image the workloads
// load, and its executable bytes.
func probeImage() (*loader.Image, []byte, error) {
	prog, err := guest.WebServer(guest.WebServerConfig{Style: guest.StyleNginx, Port: webPort, Path: webPath, Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	for _, seg := range prog.Image.Segments {
		if seg.Prot&mem.ProtExec != 0 {
			return prog.Image, seg.Data, nil
		}
	}
	return nil, nil, errors.New("web-server image has no executable segment")
}

// probeDecode decodes the image's code linearly and reports, through
// insns, how many instructions one round holds.
func probeDecode(code []byte, rounds int, insns *int) func() (float64, error) {
	return func() (float64, error) {
		start := time.Now()
		n := 0
		for i := 0; i < rounds; i++ {
			n = 0
			for off := 0; off < len(code); n++ {
				in, err := isa.Decode(code[off:])
				if err != nil {
					off++ // data in the code segment: resynchronise as the scanner does
					continue
				}
				off += in.Len
			}
		}
		*insns = n
		return time.Since(start).Seconds(), nil
	}
}

// probeAssemble builds the web-server source uncached: a path no other
// build used makes a source text guest.BuildCached has not seen. Every
// build stays in that cache, 64 KiB of data segment each, hence few
// rounds.
func probeAssemble(rounds int, builds *int) func() (float64, error) {
	return func() (float64, error) {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			*builds++
			_, err := guest.WebServer(guest.WebServerConfig{
				Style: guest.StyleNginx, Port: webPort, Workers: 1,
				Path: fmt.Sprintf("/www/probe-%d", *builds),
			})
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

func probeLoad(img *loader.Image, rounds int) func() (float64, error) {
	return func() (float64, error) {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := img.Load(mem.NewAddressSpace()); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

func probeScan(code []byte, rounds int) func() (float64, error) {
	return func() (float64, error) {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if len(zpoline.FindSyscallSites(code, guest.CodeBase, zpoline.ScanLinear)) == 0 {
				return 0, errors.New("scan probe found no syscall site in the web server")
			}
		}
		return time.Since(start).Seconds(), nil
	}
}

// probeBPF runs an allow-list filter on a syscall number at its far end
// and reports, through insns, the instructions one run executes.
func probeBPF(rounds int, insns *int) func() (float64, error) {
	return func() (float64, error) {
		allowed := make([]int32, 64)
		for i := range allowed {
			allowed[i] = int32(i)
		}
		prog, err := bpf.AllowList(allowed, bpf.RetKillProcess)
		if err != nil {
			return 0, err
		}
		data := (&bpf.SeccompData{Nr: allowed[len(allowed)-1], Arch: bpf.AuditArch}).Marshal()
		start := time.Now()
		for i := 0; i < rounds; i++ {
			_, n, err := prog.Run(data)
			if err != nil {
				return 0, err
			}
			*insns = n
		}
		return time.Since(start).Seconds(), nil
	}
}

// runProbes fills m with every *.probe.* metric.
func runProbes(m map[string]float64) error {
	img, code, err := probeImage()
	if err != nil {
		return err
	}
	const (
		blockInsns  = 20_000_000
		branchInsns = 5_000_000
		stepInsns   = 1_000_000
		xstateInsns = 2_000_000 // four per iteration, two of them xsave/xrstor
		memOps      = 1_000_000
		copyRounds  = 1_000
		mapRounds   = 200
		mapPages    = 256
		netRounds   = 500
		netOps      = 200_000
		fsRounds    = 400
		decodeRnds  = 200
		asmRounds   = 20
		loadRounds  = 100
		scanRounds  = 100
		bpfRounds   = 100_000
	)
	const mb = 1e6
	var decodeInsns, bpfInsns, builds int
	probes := []struct {
		name string
		run  func() (float64, error)
		// value turns the fastest run's seconds into the metric.
		value func(s float64) float64
	}{
		{"cpu.probe.selfloop_ns_per_insn", probeBlocks(selfLoop(), blockInsns), func(s float64) float64 { return s * 1e9 / blockInsns }},
		{"cpu.probe.branchy_ns_per_insn", probeBlocks(branchyLoop(), branchInsns), func(s float64) float64 { return s * 1e9 / branchInsns }},
		{"cpu.probe.step_ns_per_insn", probeStep(stepInsns), func(s float64) float64 { return s * 1e9 / stepInsns }},
		{"cpu.probe.xstate_ns_per_op", probeBlocks(xstateLoop(), xstateInsns), func(s float64) float64 { return s * 1e9 / (xstateInsns / 2) }},
		{"mem.probe.access_ns_per_op", probeMemAccess(memOps), func(s float64) float64 { return s * 1e9 / memOps }},
		{"mem.probe.copy_mb_per_s", probeMemCopy(copyRounds), func(s float64) float64 { return 2 * copyRounds * 16 * mem.PageSize / mb / s }},
		{"mem.probe.map_ns_per_page", probeMemMap(mapRounds, mapPages), func(s float64) float64 { return s * 1e9 / (mapRounds * mapPages) }},
		{"netstack.probe.stream_mb_per_s", probeNetStream(netRounds), func(s float64) float64 { return netRounds * (64 << 10) / mb / s }},
		{"netstack.probe.pingpong_ns_per_op", probeNetPingPong(netOps), func(s float64) float64 { return s * 1e9 / netOps }},
		{"fs.probe.read_mb_per_s", probeFSRead(fsRounds), func(s float64) float64 { return fsRounds * fsProbeSize / mb / s }},
		{"isa.probe.decode_ns_per_insn", probeDecode(code, decodeRnds, &decodeInsns), func(s float64) float64 { return s * 1e9 / float64(decodeRnds*decodeInsns) }},
		{"asm.probe.assemble_ms", probeAssemble(asmRounds, &builds), func(s float64) float64 { return s * 1e3 / asmRounds }},
		{"loader.probe.load_ms", probeLoad(img, loadRounds), func(s float64) float64 { return s * 1e3 / loadRounds }},
		{"zpoline.probe.scan_mb_per_s", probeScan(code, scanRounds), func(s float64) float64 { return float64(scanRounds*len(code)) / mb / s }},
		{"bpf.probe.ns_per_insn", probeBPF(bpfRounds, &bpfInsns), func(s float64) float64 { return s * 1e9 / float64(bpfRounds*bpfInsns) }},
	}
	for _, p := range probes {
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			s, err := p.run()
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
			if rep == 0 || s < best {
				best = s
			}
		}
		m[p.name] = p.value(best)
	}
	return nil
}
