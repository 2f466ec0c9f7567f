// Command cpubench measures interpreter throughput — host nanoseconds per
// simulated instruction and simulated MIPS — on four workloads:
//
//   - a raw register loop driven through StepBlock with the whole
//     execution fast path (decode cache, superblocks, block chaining,
//     hot traces) against a no-fast-path baseline — the counted loop
//     `addi r,-1 ; jnz`, which the fast path retires in closed form, so
//     its fast side is microseconds however many steps are asked for,
//   - the paper's microbenchmark guest running under the full simulated
//     kernel with syscall dispatch in the loop,
//   - a raw load/store sweep driven through StepBlock (the data fast
//     path's best case), and
//   - the MemBench guest — a memory-heavy sweep with one syscall at exit
//     — under the full kernel.
//
// The microbenchmark compares the decoded-instruction cache on/off; the
// other three compare the fast path (-tlb/-superblock/-chain/-traces)
// against slower baselines. The run fails if the load/store sweep's
// fast-path speedup falls below -minmemloop (the loop that still executes
// per instruction, so it is the one guarding the chained engine), the
// microbenchmark cache speedup below -minspeedup, or the MemBench
// fast-path speedup below -minfastpath, and writes BENCH_cpu.json so
// performance is tracked
// across commits. The simulation is deterministic, so all modes retire
// the same instructions and cycles; cpubench verifies that as a side
// effect.
//
// Usage:
//
//	cpubench [-steps N] [-iters N] [-memsweeps N] [-repeat N]
//	         [-tlb] [-superblock] [-chain] [-traces]
//	         [-minmemloop X] [-minspeedup X] [-minfastpath X]
//	         [-out BENCH_cpu.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lazypoline/internal/benchfmt"
	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// ModeResult is one (workload, mode) measurement.
type ModeResult struct {
	// WallSeconds is the best-of-repeat wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// NsPerInstruction is host nanoseconds per simulated instruction.
	NsPerInstruction float64 `json:"ns_per_instruction"`
	// SimulatedMIPS is millions of simulated instructions per host second.
	SimulatedMIPS float64 `json:"simulated_mips"`
}

// WorkloadResult compares the two cache modes on one workload.
type WorkloadResult struct {
	// Instructions retired per run (identical in both modes).
	Instructions uint64 `json:"instructions"`
	// Cycles consumed per run (identical in both modes).
	Cycles   uint64     `json:"cycles,omitempty"`
	CacheOn  ModeResult `json:"cache_on"`
	CacheOff ModeResult `json:"cache_off"`
	// Speedup is CacheOff.WallSeconds / CacheOn.WallSeconds.
	Speedup float64 `json:"speedup"`
	// DecodeCache reports the cache-on run's hit/miss/build counters.
	DecodeCache cpu.DecodeCacheStats `json:"decode_cache"`
}

type config struct {
	Steps       int64   `json:"raw_loop_steps"`
	Iters       int64   `json:"microbench_iters"`
	MemSweeps   int64   `json:"membench_sweeps"`
	Repeat      int     `json:"repeat"`
	TLB         bool    `json:"tlb"`
	Superblock  bool    `json:"superblock"`
	Chain       bool    `json:"chain"`
	Traces      bool    `json:"traces"`
	MinMemLoop  float64 `json:"min_memloop_speedup"`
	MinSpeedup  float64 `json:"min_speedup"`
	MinFastpath float64 `json:"min_fastpath_speedup"`
}

func main() {
	steps := flag.Int64("steps", 5_000_000, "instructions to retire in the raw register loop")
	iters := flag.Int64("iters", 100_000, "microbenchmark guest loop iterations")
	memSweeps := flag.Int64("memsweeps", 500, "data-segment sweeps in the memory workloads")
	repeat := flag.Int("repeat", 3, "timed repetitions per mode (best is kept)")
	tlb := flag.Bool("tlb", true, "enable the software D-TLB in the fast-path modes")
	superblock := flag.Bool("superblock", true, "enable superblock execution in the fast-path modes")
	chain := flag.Bool("chain", true, "enable block chaining in the fast-path modes")
	traces := flag.Bool("traces", true, "enable hot-trace compilation and fused handlers in the fast-path modes")
	minMemLoop := flag.Float64("minmemloop", 2.0, "fail if the load/store sweep's fast-path speedup is below this (0 disables; only sensible with the full fast path on)")
	minSpeedup := flag.Float64("minspeedup", 1.5, "fail if the microbenchmark cache speedup is below this (0 disables)")
	minFastpath := flag.Float64("minfastpath", 2.0, "fail if the MemBench fast-path speedup is below this (0 disables; only sensible with -tlb and -superblock)")
	out := flag.String("out", "BENCH_cpu.json", "machine-readable result file (empty disables)")
	flag.Parse()

	cfg := config{
		Steps: *steps, Iters: *iters, MemSweeps: *memSweeps, Repeat: *repeat,
		TLB: *tlb, Superblock: *superblock, Chain: *chain, Traces: *traces,
		MinMemLoop: *minMemLoop, MinSpeedup: *minSpeedup, MinFastpath: *minFastpath,
	}

	begin := time.Now()
	rawLoop, err := measureRawLoop(cfg)
	if err != nil {
		fatal(err)
	}
	micro, err := measureMicrobench(cfg)
	if err != nil {
		fatal(err)
	}
	memLoop, err := measureMemLoop(cfg)
	if err != nil {
		fatal(err)
	}
	memBench, err := measureMemBench(cfg)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(begin)

	fmt.Printf("CPU interpreter throughput (best of %d)\n\n", cfg.Repeat)
	reportFastpath("raw register loop", rawLoop)
	report("microbench guest (full kernel)", micro)
	reportFastpath("raw load/store sweep", memLoop)
	reportFastpath("membench guest (full kernel)", memBench)

	if *out != "" {
		err := benchfmt.Write(*out, benchfmt.File{
			Name:        "cpu",
			Parallelism: 1,
			WallSeconds: wall.Seconds(),
			Config:      cfg,
			Results: map[string]any{
				"raw_loop":   rawLoop,
				"microbench": micro,
				"mem_loop":   memLoop,
				"membench":   memBench,
			},
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if cfg.MinMemLoop > 0 && memLoop.Speedup < cfg.MinMemLoop {
		fatal(fmt.Errorf("load/store sweep fast-path speedup %.2fx is below the %.2fx floor",
			memLoop.Speedup, cfg.MinMemLoop))
	}
	if cfg.MinSpeedup > 0 && micro.Speedup < cfg.MinSpeedup {
		fatal(fmt.Errorf("microbench cache speedup %.2fx is below the %.2fx floor",
			micro.Speedup, cfg.MinSpeedup))
	}
	if cfg.MinFastpath > 0 && memBench.Speedup < cfg.MinFastpath {
		fatal(fmt.Errorf("membench fast-path speedup %.2fx is below the %.2fx floor",
			memBench.Speedup, cfg.MinFastpath))
	}
}

func report(name string, w WorkloadResult) {
	fmt.Printf("%s — %d instructions\n", name, w.Instructions)
	fmt.Printf("  cache on   %8.2f ns/insn  %8.1f simulated MIPS\n",
		w.CacheOn.NsPerInstruction, w.CacheOn.SimulatedMIPS)
	fmt.Printf("  cache off  %8.2f ns/insn  %8.1f simulated MIPS\n",
		w.CacheOff.NsPerInstruction, w.CacheOff.SimulatedMIPS)
	fmt.Printf("  speedup    %8.2fx   (cache: %d hits, %d misses, %d builds)\n\n",
		w.Speedup, w.DecodeCache.Hits, w.DecodeCache.Misses, w.DecodeCache.Builds)
}

// measureRawLoop drives the BenchmarkCPUStep register loop through
// StepBlock — the whole execution fast path against a no-fast-path
// baseline (decode cache, D-TLB, superblocks, chaining and traces all
// off, i.e. per-instruction fetch+decode+dispatch). The loop is the
// counted loop `addi rcx,-1 ; jnz`, so with traces enabled the fast side
// is one closed-form update per StepBlock call: its wall time does not
// grow with -steps, and no speedup is reported against it.
func measureRawLoop(cfg config) (FastpathResult, error) {
	run := func(fastpath, instrument bool) (s runSample, err error) {
		var e isa.Enc
		e.MovImm64(isa.RCX, 1<<60)
		loop := e.Len()
		e.AddImm(isa.RCX, -1)
		e.Jnz(int64(loop) - int64(e.Len()) - 5)
		as := mem.NewAddressSpace()
		if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRWX); err != nil {
			return s, err
		}
		if err := as.WriteAt(0x1000, e.Buf); err != nil {
			return s, err
		}
		c := cpu.New(as)
		c.SetDecodeCache(fastpath)
		c.SetTLB(fastpath && cfg.TLB)
		c.SetSuperblocks(fastpath && cfg.Superblock)
		c.SetChaining(fastpath && cfg.Chain)
		c.SetTraces(fastpath && cfg.Traces)
		c.RIP = 0x1000
		if instrument {
			c.Hook = func(uint64, isa.Inst) { s.insns++ }
		}
		budget := uint64(cfg.Steps)
		start := time.Now()
		for retired := uint64(0); retired < budget; {
			ev, n, _ := c.StepBlock(budget - retired)
			if ev != cpu.EvNone {
				return s, fmt.Errorf("raw loop stopped with event %v (%v)", ev, c.FaultErr)
			}
			retired += n
		}
		s.wall = time.Since(start).Seconds()
		s.cycles = c.Cycles
		s.tlb = c.TLBStats()
		s.sbInsts = c.SuperblockInsts
		s.chain = c.ChainStats()
		s.trace = c.TraceStats()
		return s, nil
	}
	return fastpathWorkload(cfg, run)
}

// measureMicrobench runs the paper's microbenchmark guest under the full
// kernel. The instruction count is taken from an untimed instrumented
// run; the simulation is deterministic, so every run retires the same
// stream.
func measureMicrobench(cfg config) (WorkloadResult, error) {
	run := func(useCache, instrument bool) (insns, cycles uint64, wall float64, stats cpu.DecodeCacheStats, err error) {
		k := kernel.New(kernel.Config{DisableDecodeCache: !useCache})
		prog, err := guest.Microbench(kernel.NonexistentSyscall, cfg.Iters)
		if err != nil {
			return 0, 0, 0, stats, err
		}
		task, err := prog.Spawn(k)
		if err != nil {
			return 0, 0, 0, stats, err
		}
		if instrument {
			task.CPU.Hook = func(uint64, isa.Inst) { insns++ }
		}
		start := time.Now()
		if err := k.Run(-1); err != nil {
			return 0, 0, 0, stats, err
		}
		wall = time.Since(start).Seconds()
		if task.ExitCode != 0 {
			return 0, 0, 0, stats, fmt.Errorf("microbench guest exited %d", task.ExitCode)
		}
		return insns, task.CPU.Cycles, wall, task.CPU.DecodeCacheStats(), nil
	}

	insns, cyclesOn, _, _, err := run(true, true)
	if err != nil {
		return WorkloadResult{}, err
	}
	best := func(useCache bool) (uint64, float64, cpu.DecodeCacheStats, error) {
		bestWall := 0.0
		var cycles uint64
		var stats cpu.DecodeCacheStats
		for r := 0; r < cfg.Repeat; r++ {
			_, c, wall, s, err := run(useCache, false)
			if err != nil {
				return 0, 0, stats, err
			}
			if bestWall == 0 || wall < bestWall {
				bestWall = wall
			}
			cycles, stats = c, s
		}
		return cycles, bestWall, stats, nil
	}
	cyclesOn2, on, stats, err := best(true)
	if err != nil {
		return WorkloadResult{}, err
	}
	cyclesOff, off, _, err := best(false)
	if err != nil {
		return WorkloadResult{}, err
	}
	if cyclesOn != cyclesOn2 || cyclesOn != cyclesOff {
		return WorkloadResult{}, fmt.Errorf("cycle counts diverged: instrumented=%d cache-on=%d cache-off=%d (the cache must be semantically invisible)",
			cyclesOn, cyclesOn2, cyclesOff)
	}
	return assemble(insns, cyclesOn, on, off, stats), nil
}

// minTimedWall is the shortest wall time worth dividing by: below it a
// run is timer resolution and call overhead, not work.
const minTimedWall = 100e-6

// mode derives the per-instruction figures of one timed run. A run too
// short to time reports no MIPS rather than an arbitrary huge one.
func mode(insns uint64, wall float64) ModeResult {
	m := ModeResult{WallSeconds: wall, NsPerInstruction: wall * 1e9 / float64(insns)}
	if wall >= minTimedWall {
		m.SimulatedMIPS = float64(insns) / wall / 1e6
	}
	return m
}

// speedup is slow/fast, or 0 when the fast side ran too briefly to time:
// a ratio against microseconds is noise, not a speedup.
func speedup(slow, fast float64) float64 {
	if fast < minTimedWall {
		return 0
	}
	return slow / fast
}

func assemble(insns, cycles uint64, on, off float64, stats cpu.DecodeCacheStats) WorkloadResult {
	return WorkloadResult{
		Instructions: insns,
		Cycles:       cycles,
		CacheOn:      mode(insns, on),
		CacheOff:     mode(insns, off),
		Speedup:      speedup(off, on),
		DecodeCache:  stats,
	}
}

// FastpathResult compares fast-path-on (per the -tlb/-superblock/-chain/
// -traces toggles) against baseline execution on one workload.
type FastpathResult struct {
	Instructions uint64     `json:"instructions"`
	Cycles       uint64     `json:"cycles"`
	FastpathOn   ModeResult `json:"fastpath_on"`
	FastpathOff  ModeResult `json:"fastpath_off"`
	// Speedup is FastpathOff.WallSeconds / FastpathOn.WallSeconds, or 0
	// when the fast side was too short to time (see minTimedWall).
	Speedup float64 `json:"speedup"`
	// TLB reports the fast-path run's D-TLB counters.
	TLB cpu.TLBStats `json:"tlb"`
	// SuperblockInsts is how many instructions the fast-path run retired
	// inside superblock tight loops.
	SuperblockInsts uint64 `json:"superblock_insts"`
	// Chain reports the fast-path run's block-chaining counters and Trace
	// the hot-trace/fused-handler counters (all zero with those layers
	// off).
	Chain cpu.ChainStats `json:"chain"`
	Trace cpu.TraceStats `json:"trace"`
}

func reportFastpath(name string, w FastpathResult) {
	fmt.Printf("%s — %d instructions\n", name, w.Instructions)
	fmt.Printf("  fastpath on   %8.2f ns/insn  %8.1f simulated MIPS\n",
		w.FastpathOn.NsPerInstruction, w.FastpathOn.SimulatedMIPS)
	fmt.Printf("  fastpath off  %8.2f ns/insn  %8.1f simulated MIPS\n",
		w.FastpathOff.NsPerInstruction, w.FastpathOff.SimulatedMIPS)
	ratio := fmt.Sprintf("%8.2fx", w.Speedup)
	if w.Speedup == 0 {
		ratio = fmt.Sprintf("      n/a (fast side ran %.0f µs, too short to time)", w.FastpathOn.WallSeconds*1e6)
	}
	fmt.Printf("  speedup       %s   (tlb: %d hits, %d misses; superblock insts: %d)\n",
		ratio, w.TLB.Hits, w.TLB.Misses, w.SuperblockInsts)
	fmt.Printf("                            (chain: %d links, %d transitions; trace insts: %d, fused loop iters: %d, fused nops: %d, fused stack insts: %d)\n\n",
		w.Chain.Links, w.Chain.Transitions, w.Trace.Insts, w.Trace.FusedLoopIters, w.Trace.FusedNopInsts, w.Trace.FusedStackInsts)
}

// runSample is one measured run of a fast-path workload.
type runSample struct {
	insns   uint64
	cycles  uint64
	wall    float64
	tlb     cpu.TLBStats
	sbInsts uint64
	chain   cpu.ChainStats
	trace   cpu.TraceStats
}

// assembleFastpath mirrors assemble for the fast-path comparison.
func assembleFastpath(insns uint64, on, off runSample) FastpathResult {
	return FastpathResult{
		Instructions:    insns,
		Cycles:          on.cycles,
		FastpathOn:      mode(insns, on.wall),
		FastpathOff:     mode(insns, off.wall),
		Speedup:         speedup(off.wall, on.wall),
		TLB:             on.tlb,
		SuperblockInsts: on.sbInsts,
		Chain:           on.chain,
		Trace:           on.trace,
	}
}

// memLoopProgram encodes the raw load/store sweep: `sweeps` passes over
// `pages` RW pages at a 64-byte stride, each step a store, a dependent
// load, and the loop bookkeeping, ending in a syscall.
func memLoopProgram(sweeps int64, pages uint64, dataBase uint64) []byte {
	steps := int64(pages) * int64(mem.PageSize) / 64
	var e isa.Enc
	e.MovImm64(isa.RCX, sweeps)
	outer := e.Len()
	e.MovImm64(isa.RBX, int64(dataBase))
	e.MovImm64(isa.RSI, steps)
	inner := e.Len()
	e.Store(isa.RBX, 0, isa.RCX)
	e.Load(isa.RDX, isa.RBX, 0)
	e.AddImm(isa.RBX, 64)
	e.AddImm(isa.RSI, -1)
	e.Jnz(int64(inner) - int64(e.Len()) - 5)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(outer) - int64(e.Len()) - 5)
	e.Syscall()
	return e.Buf
}

// measureMemLoop drives the raw sweep through StepBlock the way the
// kernel does — with the fast path off, StepBlock degrades to
// per-instruction dispatch, which is exactly the cost superblocks
// eliminate.
func measureMemLoop(cfg config) (FastpathResult, error) {
	const (
		codeBase = 0x1000
		dataBase = 0x100000
		pages    = 16
	)
	run := func(fastpath, instrument bool) (s runSample, err error) {
		as := mem.NewAddressSpace()
		if err := as.MapFixed(codeBase, mem.PageSize, mem.ProtRX); err != nil {
			return s, err
		}
		if err := as.WriteForce(codeBase, memLoopProgram(cfg.MemSweeps, pages, dataBase)); err != nil {
			return s, err
		}
		if err := as.MapFixed(dataBase, pages*mem.PageSize, mem.ProtRW); err != nil {
			return s, err
		}
		c := cpu.New(as)
		c.SetTLB(fastpath && cfg.TLB)
		c.SetSuperblocks(fastpath && cfg.Superblock)
		c.SetChaining(fastpath && cfg.Chain)
		c.SetTraces(fastpath && cfg.Traces)
		c.RIP = codeBase
		if instrument {
			c.Hook = func(uint64, isa.Inst) { s.insns++ }
		}
		start := time.Now()
		for {
			ev, _, _ := c.StepBlock(1 << 20)
			if ev == cpu.EvSyscall {
				break
			}
			if ev != cpu.EvNone {
				return s, fmt.Errorf("mem loop stopped with event %v (%v)", ev, c.FaultErr)
			}
		}
		s.wall = time.Since(start).Seconds()
		s.cycles = c.Cycles
		s.tlb = c.TLBStats()
		s.sbInsts = c.SuperblockInsts
		s.chain = c.ChainStats()
		s.trace = c.TraceStats()
		return s, nil
	}
	return fastpathWorkload(cfg, run)
}

// measureMemBench runs the MemBench guest under the full kernel.
func measureMemBench(cfg config) (FastpathResult, error) {
	run := func(fastpath, instrument bool) (s runSample, err error) {
		k := kernel.New(kernel.Config{
			DisableTLB:         !(fastpath && cfg.TLB),
			DisableSuperblocks: !(fastpath && cfg.Superblock),
			DisableChaining:    !(fastpath && cfg.Chain),
			DisableTraces:      !(fastpath && cfg.Traces),
		})
		prog, err := guest.MemBench(cfg.MemSweeps)
		if err != nil {
			return s, err
		}
		task, err := prog.Spawn(k)
		if err != nil {
			return s, err
		}
		if instrument {
			task.CPU.Hook = func(uint64, isa.Inst) { s.insns++ }
		}
		start := time.Now()
		if err := k.Run(-1); err != nil {
			return s, err
		}
		s.wall = time.Since(start).Seconds()
		if task.ExitCode != 0 {
			return s, fmt.Errorf("membench guest exited %d (self-check failed)", task.ExitCode)
		}
		s.cycles = task.CPU.Cycles
		s.tlb = task.CPU.TLBStats()
		s.sbInsts = task.CPU.SuperblockInsts
		s.chain = task.CPU.ChainStats()
		s.trace = task.CPU.TraceStats()
		return s, nil
	}
	return fastpathWorkload(cfg, run)
}

// fastpathWorkload shares the instrument-once, best-of-repeat,
// cycle-invariance structure between the fast-path workloads.
func fastpathWorkload(cfg config, run func(fastpath, instrument bool) (runSample, error)) (FastpathResult, error) {
	ref, err := run(true, true)
	if err != nil {
		return FastpathResult{}, err
	}
	best := func(fastpath bool) (runSample, error) {
		var kept runSample
		for r := 0; r < cfg.Repeat; r++ {
			s, err := run(fastpath, false)
			if err != nil {
				return kept, err
			}
			if kept.wall == 0 || s.wall < kept.wall {
				wall := s.wall
				kept = s
				kept.wall = wall
			}
		}
		return kept, nil
	}
	on, err := best(true)
	if err != nil {
		return FastpathResult{}, err
	}
	off, err := best(false)
	if err != nil {
		return FastpathResult{}, err
	}
	if ref.cycles != on.cycles || on.cycles != off.cycles {
		return FastpathResult{}, fmt.Errorf("cycle counts diverged: instrumented=%d fastpath-on=%d fastpath-off=%d (the fast path must be semantically invisible)",
			ref.cycles, on.cycles, off.cycles)
	}
	return assembleFastpath(ref.insns, on, off), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpubench:", err)
	os.Exit(1)
}
