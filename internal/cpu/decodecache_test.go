package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// loadProt is load with a caller-chosen final code-page protection (RWX
// for self-modifying guests, RX for the normal case).
func loadProt(t *testing.T, code []byte, prot mem.Prot) *CPU {
	t.Helper()
	c := load(t, code)
	codeLen := (uint64(len(code)) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if codeLen == 0 {
		codeLen = mem.PageSize
	}
	if err := c.AS.Protect(codeBase, codeLen, prot); err != nil {
		t.Fatal(err)
	}
	return c
}

// smcProgram encodes a guest that executes a target instruction, rewrites
// it in place through ordinary stores (the JIT pattern), loops back, and
// halts after the second pass. The target starts as `mov64 rdi, 1` and is
// rewritten to `mov64 rdi, 2`, so rdi at halt reveals whether the rewrite
// took effect on the very next execution.
func smcProgram(t *testing.T) []byte {
	t.Helper()
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)

	var e isa.Enc
	e.MovImm64(isa.RDI, 1) // target, offset 0
	target := 0
	e.CmpImm(isa.R9, 1)
	e.Jz(1 << 30) // patched below to jump to the hlt
	e.AddImm(isa.R9, 1)
	e.MovImm64(isa.R10, codeBase+int64(target))
	e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[0:8])))
	e.Store(isa.R10, 0, isa.R12)
	e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[2:10])))
	e.Store(isa.R10, 2, isa.R12)
	e.Jmp(int64(target) - int64(e.Len()) - 5)
	hlt := e.Len()
	e.Hlt()
	// Fix up the jz rel32 to land on the hlt.
	jzEnd := 10 + 6 + 5
	binary.LittleEndian.PutUint32(e.Buf[jzEnd-4:jzEnd], uint32(int32(hlt-jzEnd)))
	return e.Buf
}

func TestSelfModifyingCodeDirectStore(t *testing.T) {
	for _, mode := range []ExecMode{ExecFast, ExecReference} {
		t.Run(mode.String(), func(t *testing.T) {
			c := loadProt(t, smcProgram(t), mem.ProtRWX)
			if mode == ExecReference {
				c = cloneCPU(c)
			}
			if ev := run(t, c, 100); ev != EvHlt {
				t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
			}
			if c.Regs[isa.RDI] != 2 {
				t.Errorf("rdi = %d, want 2 (stale decode executed after in-place rewrite)", c.Regs[isa.RDI])
			}
		})
	}
}

// codeRewrite is a way the host rewrites code under a running guest.
type codeRewrite struct {
	name    string
	rewrite func(c *CPU, at uint64, code []byte) error
}

// hostRewrites are WriteForce (the ptrace/kernel-patch flavour) and the
// lazypoline slow path's mprotect RW, ordinary write, mprotect RX, which
// must bump the page's generation though the bytes are written with
// ordinary stores.
var hostRewrites = []codeRewrite{
	{"WriteForce", func(c *CPU, at uint64, code []byte) error { return c.AS.WriteForce(at, code) }},
	{"ProtectFlip", func(c *CPU, at uint64, code []byte) error {
		return errors.Join(c.AS.Protect(codeBase, mem.PageSize, mem.ProtRW),
			c.AS.WriteAt(at, code), c.AS.Protect(codeBase, mem.PageSize, mem.ProtRX))
	}},
}

// TestSelfModifyingCodeHostRewrite: the host rewrites an instruction
// between two executions of it, with the rest of its block in cur.
func TestSelfModifyingCodeHostRewrite(t *testing.T) {
	var e, patch isa.Enc
	e.MovImm64(isa.RDI, 1) // target
	e.AddImm(isa.R9, 1)
	e.CmpImm(isa.R9, 2)
	e.Jnz(-(10 + 6 + 6) - 5)
	e.Hlt()
	patch.MovImm64(isa.RDI, 2)
	for _, tc := range hostRewrites {
		t.Run(tc.name, func(t *testing.T) {
			c := load(t, e.Buf)
			if ev := c.Step(); ev != EvNone { // executes (and caches) the target
				t.Fatalf("event = %v", ev)
			}
			if err := tc.rewrite(c, codeBase, patch.Buf); err != nil {
				t.Fatal(err)
			}
			if ev := run(t, c, 100); ev != EvHlt {
				t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
			}
			if c.Regs[isa.RDI] != 2 {
				t.Errorf("rdi = %d, want 2 (rewrite missed)", c.Regs[isa.RDI])
			}
		})
	}
}

func TestCloneVMSharedCacheCoherence(t *testing.T) {
	// Two CPUs over one address space (CLONE_VM): a write executed by one
	// thread must invalidate the other thread's cached decode.
	var e isa.Enc
	e.MovImm64(isa.RDI, 1) // target at codeBase
	e.Hlt()
	writer := e.Len()
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)
	e.MovImm64(isa.R10, codeBase)
	e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[0:8])))
	e.Store(isa.R10, 0, isa.R12)
	e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[2:10])))
	e.Store(isa.R10, 2, isa.R12)
	e.Hlt()

	a := loadProt(t, e.Buf, mem.ProtRWX)
	b := New(a.AS)
	b.RIP = codeBase + uint64(writer)
	if ev := run(t, a, 10); ev != EvHlt { // thread A caches the target
		t.Fatalf("a: %v", ev)
	}
	if a.Regs[isa.RDI] != 1 {
		t.Fatalf("a rdi = %d before rewrite", a.Regs[isa.RDI])
	}
	if ev := b.Step(); ev != EvNone { // thread B rewrites it
		t.Fatalf("b: %v", ev)
	}
	for i := 0; i < 10; i++ {
		if ev := b.Step(); ev == EvHlt {
			break
		}
	}
	a.RIP = codeBase
	if ev := run(t, a, 10); ev != EvHlt {
		t.Fatalf("a rerun: %v", ev)
	}
	if a.Regs[isa.RDI] != 2 {
		t.Errorf("a rdi = %d, want 2 (thread B's write missed A's cache)", a.Regs[isa.RDI])
	}
}

func TestForkIsolatesCaches(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RDI, 1)
	e.Hlt()
	parent := load(t, e.Buf)
	if ev := run(t, parent, 10); ev != EvHlt {
		t.Fatalf("parent: %v", ev)
	}

	childAS := parent.AS.Clone()
	child := New(childAS)
	child.RIP = codeBase
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)
	if err := childAS.WriteForce(codeBase, patch.Buf); err != nil {
		t.Fatal(err)
	}
	if ev := run(t, child, 10); ev != EvHlt {
		t.Fatalf("child: %v", ev)
	}
	if child.Regs[isa.RDI] != 2 {
		t.Errorf("child rdi = %d, want 2", child.Regs[isa.RDI])
	}
	// The parent's copy is untouched; its cached decode must still serve.
	parent.RIP = codeBase
	if ev := run(t, parent, 10); ev != EvHlt {
		t.Fatalf("parent rerun: %v", ev)
	}
	if parent.Regs[isa.RDI] != 1 {
		t.Errorf("parent rdi = %d, want 1 (child write leaked across fork)", parent.Regs[isa.RDI])
	}
}

// TestAddressSpaceSwapFlushesCache: the execve case. The kernel rebinds
// the CPU to a fresh address space, with code at the same pc, so the old
// block sits in the very table slot the new entry looks up. No block
// from the old space may execute or stay reachable, even if the new
// space's counters happen to coincide, and the flush counts as a rebind,
// not an overflow.
func TestAddressSpaceSwapFlushesCache(t *testing.T) {
	var e1 isa.Enc
	e1.MovImm64(isa.RDI, 1)
	e1.Hlt()
	c := load(t, e1.Buf)
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	dc := c.cache
	old := maps.Clone(dc.blocks)
	if len(old) == 0 || dc.table[codeBase%tableSize] == nil {
		t.Fatal("no block cached before the swap; the test is vacuous")
	}

	var e2 isa.Enc
	e2.MovImm64(isa.RDI, 7)
	e2.Hlt()
	as2 := mem.NewAddressSpace()
	if err := as2.MapFixed(codeBase, mem.PageSize, mem.ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := as2.WriteForce(codeBase, e2.Buf); err != nil {
		t.Fatal(err)
	}
	c.AS = as2
	c.RIP = codeBase
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.Regs[isa.RDI] != 7 {
		t.Errorf("rdi = %d, want 7 (stale block from the old address space)", c.Regs[isa.RDI])
	}
	for _, b := range old {
		if reachable(dc, b) {
			t.Errorf("block at %#x from the old address space is reachable", b.entry)
		}
	}
	if s := c.DecodeCacheStats(); s.RebindFlushes != 1 || s.OverflowEvictions != 0 {
		t.Errorf("%+v; want 1 rebind flush and no overflow eviction", s)
	}
}

func TestDecodeCacheInvisible(t *testing.T) {
	// One program exercising straight-line runs, NOP batches, loops,
	// memory traffic and a syscall: the cached and uncached executions
	// must produce identical instruction traces, cycle counts and
	// register files.
	build := func() []byte {
		var e isa.Enc
		e.MovImm64(isa.RCX, 25)
		loop := e.Len()
		e.Nop(7)
		e.MovImm64(isa.RAX, stackBase)
		e.Store(isa.RAX, 0, isa.RCX)
		e.Load(isa.RDX, isa.RAX, 0)
		e.Add(isa.RBX, isa.RDX)
		e.Nop(9)
		e.AddImm(isa.RCX, -1)
		e.Jnz(int64(loop) - int64(e.Len()) - 5)
		e.Syscall()
		return e.Buf
	}
	type result struct {
		trace  []string
		cycles uint64
		regs   [isa.NumRegs]uint64
		stats  DecodeCacheStats
	}
	exec := func(c *CPU) result {
		var r result
		c.Hook = func(pc uint64, in isa.Inst) {
			r.trace = append(r.trace, fmt.Sprintf("%#x %s", pc, in))
		}
		if ev := run(t, c, 5000); ev != EvSyscall {
			t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
		}
		r.cycles, r.regs, r.stats = c.Cycles, c.Regs, c.DecodeCacheStats()
		return r
	}
	on, off := exec(load(t, build())), exec(loadRef(t, build()))
	if len(on.trace) != len(off.trace) {
		t.Fatalf("trace lengths differ: %d cached vs %d uncached", len(on.trace), len(off.trace))
	}
	for i := range on.trace {
		if on.trace[i] != off.trace[i] {
			t.Fatalf("trace[%d]: cached %q vs uncached %q", i, on.trace[i], off.trace[i])
		}
	}
	if on.cycles != off.cycles {
		t.Errorf("cycles: cached %d vs uncached %d", on.cycles, off.cycles)
	}
	if on.regs != off.regs {
		t.Errorf("register files differ: cached %v vs uncached %v", on.regs, off.regs)
	}
	if on.stats.Hits == 0 || on.stats.Builds == 0 {
		t.Errorf("cache did no work: %+v", on.stats)
	}
	if off.stats != (DecodeCacheStats{}) {
		t.Errorf("reference engine reported cache activity: %+v", off.stats)
	}
}

func TestBlockStraddlesPageBoundary(t *testing.T) {
	// An instruction straddling two executable pages must decode from the
	// cache, and a rewrite of the *second* page must invalidate it.
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, 2*mem.PageSize, mem.ProtRWX); err != nil {
		t.Fatal(err)
	}
	start := uint64(0x2000 - 5) // mov64 occupies 0x1FFB..0x2004
	var e isa.Enc
	e.MovImm64(isa.RDI, 1)
	e.Hlt()
	if err := as.WriteForce(start, e.Buf); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.RIP = start
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if c.Regs[isa.RDI] != 1 {
		t.Fatalf("rdi = %d", c.Regs[isa.RDI])
	}
	// Patch only bytes on the second page (the immediate's upper bytes).
	if err := as.WriteForce(0x2000, []byte{2}); err != nil { // imm byte 3
		t.Fatal(err)
	}
	c.RIP = start
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.Regs[isa.RDI] != 1+2<<24 {
		t.Errorf("rdi = %#x, want %#x (second-page rewrite missed)", c.Regs[isa.RDI], 1+2<<24)
	}
}

func TestUncachedTailFetchFaultAddress(t *testing.T) {
	// A mov64 whose encoding runs off the end of the last executable page
	// must fault as an exec page fault at the first unfetchable byte —
	// not as an illegal instruction at pc, and not at a retried width.
	for _, mode := range []ExecMode{ExecFast, ExecReference} {
		t.Run(mode.String(), func(t *testing.T) {
			as := mem.NewAddressSpace()
			if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRX); err != nil {
				t.Fatal(err)
			}
			var e isa.Enc
			e.MovImm64(isa.RDI, 1)
			start := uint64(0x2000 - 6) // 6 of 10 bytes fit
			if err := as.WriteForce(start, e.Buf[:6]); err != nil {
				t.Fatal(err)
			}
			c := NewExec(as, mode)
			c.RIP = start
			if ev := c.Step(); ev != EvFault {
				t.Fatalf("event = %v, want fault", ev)
			}
			var f *mem.Fault
			if !errors.As(c.FaultErr, &f) {
				t.Fatalf("FaultErr = %v, want a mem.Fault", c.FaultErr)
			}
			if f.Addr != 0x2000 || f.Kind != mem.AccessExec {
				t.Errorf("fault at %#x (%v), want exec fault at 0x2000", f.Addr, f.Kind)
			}
			if c.RIP != start {
				t.Errorf("rip = %#x, want unmoved %#x", c.RIP, start)
			}
		})
	}
}

func TestBadOpcodeStillIllegalAtTail(t *testing.T) {
	// Undecodable bytes keep raising an illegal-instruction error (SIGILL
	// in the kernel), even at a mapping tail where a fetch also came up
	// short: only *truncation* is reattributed to the fetch fault.
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteForce(0x2000-3, []byte{0xEE, 0xEE, 0xEE}); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.RIP = 0x2000 - 3
	if ev := c.Step(); ev != EvFault {
		t.Fatalf("event = %v, want fault", ev)
	}
	if !errors.Is(c.FaultErr, isa.ErrBadOpcode) {
		t.Errorf("FaultErr = %v, want ErrBadOpcode", c.FaultErr)
	}
}
