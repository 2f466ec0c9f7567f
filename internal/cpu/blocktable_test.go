package cpu

import (
	"encoding/binary"
	"maps"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// blockLoopProgram exercises every fast path at once: a hot loop split
// into three blocks by jmp+0 instructions (so block transitions hit the
// table), a leading NOP run in one block (the fused sled), and memory
// traffic (the D-TLB), for 200 iterations.
func blockLoopProgram() []byte {
	var e isa.Enc
	e.MovImm64(isa.RCX, 200)
	e.MovImm64(isa.RAX, stackBase)
	loop := e.Len()
	e.Nop(6)
	e.AddImm(isa.RBX, 1)
	e.Jmp(0) // block boundary; fall-through
	e.Store(isa.RAX, 0, isa.RCX)
	e.Load(isa.RDX, isa.RAX, 0)
	e.Jmp(0) // block boundary; fall-through
	e.Add(isa.RBX, isa.RDX)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Syscall()
	return e.Buf
}

// selfLoopProgram is a self-contained block whose body is ALU/memory work
// and whose Jnz lands back on the block entry.
func selfLoopProgram(iters int64) []byte {
	var e isa.Enc
	e.MovImm64(isa.RCX, iters)
	e.MovImm64(isa.RAX, stackBase)
	loop := e.Len()
	e.Store(isa.RAX, 0, isa.RCX)
	e.Load(isa.RDX, isa.RAX, 0)
	e.Add(isa.RBX, isa.RDX)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Syscall()
	return e.Buf
}

// reachable reports whether b can still be entered: the map, its table
// slot or cur holds it.
func reachable(dc *decodeCache, b *cachedBlock) bool {
	return dc.blocks[b.entry] == b || dc.table[b.entry%tableSize] == b || dc.cur == b
}

// TestBlockLoopMatchesReference: the fast engine runs the block loop
// through superblocks, table hits and the fused sled, and ends in the
// reference engine's state; the reference does none of that work.
func TestBlockLoopMatchesReference(t *testing.T) {
	ref := loadRef(t, blockLoopProgram())
	if ev := run(t, ref, 50000); ev != EvSyscall {
		t.Fatalf("ref event = %v (fault: %v)", ev, ref.FaultErr)
	}
	c := load(t, blockLoopProgram())
	if ev := runBlocks(t, c, 1<<20, 50000); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if c.Cycles != ref.Cycles || c.Regs != ref.Regs {
		t.Errorf("cycles %d, regs %v; reference %d, %v", c.Cycles, c.Regs, ref.Cycles, ref.Regs)
	}
	if cs, ts := c.DecodeCacheStats(), c.FusedStats(); c.SuperblockRuns == 0 || c.SuperblockInsts == 0 ||
		cs.TableHits == 0 || ts.FusedNopInsts == 0 {
		t.Errorf("the fast engine did not batch, hit the table and fuse the sled (vacuous): superblock runs %d insts %d, %+v %+v",
			c.SuperblockRuns, c.SuperblockInsts, cs, ts)
	}
	if ref.DecodeCacheStats() != (DecodeCacheStats{}) || ref.TLBStats() != (TLBStats{}) ||
		ref.FusedStats() != (FusedStats{}) || ref.SuperblockInsts != 0 {
		t.Errorf("the reference engine used a fast-path tier: %+v %+v %+v superblock insts %d",
			ref.DecodeCacheStats(), ref.TLBStats(), ref.FusedStats(), ref.SuperblockInsts)
	}
}

// TestSelfLoopHitsTable: a memcpy-shaped self-loop is no fused idiom; it
// runs block by block, finding itself in the table once per iteration,
// and executes identically to the reference engine.
func TestSelfLoopHitsTable(t *testing.T) {
	const iters = 500
	c := load(t, selfLoopProgram(iters))
	if ev := runBlocks(t, c, 1<<20, 100); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if ts := c.FusedStats(); ts.FusedLoopIters != 0 || ts.FusedStackInsts != 0 {
		t.Errorf("a fused handler retired part of the loop: %+v", ts)
	}
	// The first back edge builds the block at the loop head and fills
	// its slot; every later one finds it there.
	if cs := c.DecodeCacheStats(); cs.TableHits != iters-2 {
		t.Errorf("%d table hits for %d iterations", cs.TableHits, iters)
	}
	ref := loadRef(t, selfLoopProgram(iters))
	if ev := run(t, ref, 50000); ev != EvSyscall {
		t.Fatalf("ref event = %v", ev)
	}
	if c.Cycles != ref.Cycles || c.Regs != ref.Regs {
		t.Errorf("self-loop diverged: cycles %d vs %d", c.Cycles, ref.Cycles)
	}
}

// TestStepBlockBoundaryMatchesStep: sweeping the budget across a
// multi-block program, every StepBlock call must report the (event,
// steps, pre) triple of StepBlock's contract spelled with Step on the
// reference engine, and leave the same cycles and rip — including the
// boundary case where the block's final instruction raises its event
// exactly as steps reaches max.
func TestStepBlockBoundaryMatchesStep(t *testing.T) {
	for _, max := range []uint64{1, 2, 3, 5, 7, 8, 9, 64, 1 << 20} {
		fast, ref := load(t, blockLoopProgram()), loadRef(t, blockLoopProgram())
		for i := 0; ; i++ {
			got, want := stepBlock(fast, max), stepOnly(ref, max)
			if got != want || fast.Cycles != ref.Cycles || fast.RIP != ref.RIP {
				t.Fatalf("max %d: call %d = %+v cycles %d rip %#x, want %+v cycles %d rip %#x",
					max, i, got, fast.Cycles, fast.RIP, want, ref.Cycles, ref.RIP)
			}
			if got.ev == EvSyscall {
				break
			}
			if got.ev != EvNone || i == 50000 {
				t.Fatalf("max %d: event = %v after %d calls (fault: %v)", max, got.ev, i, fast.FaultErr)
			}
		}
	}
}

// TestStepBlockEventAtBudgetBoundary: when a block's final
// instruction raises the event exactly as the budget is consumed, the
// pre cycle-replay value must be the cycle count through the
// second-to-last instruction.
func TestStepBlockEventAtBudgetBoundary(t *testing.T) {
	var e isa.Enc
	e.AddImm(isa.RBX, 1)
	e.Jmp(0) // force a block transition right before the event block
	e.AddImm(isa.RBX, 1)
	e.Syscall()
	c := load(t, e.Buf)
	// Warm the cache and the table, then rerun the same code.
	ev, steps, _ := c.StepBlock(100)
	if ev != EvSyscall || steps != 4 {
		t.Fatalf("warmup: ev = %v steps = %d", ev, steps)
	}
	warmCycles := c.Cycles
	c.RIP = codeBase
	ev, steps, pre := c.StepBlock(4) // event lands exactly on max
	if ev != EvSyscall || steps != 4 {
		t.Fatalf("ev = %v steps = %d, want syscall at exactly 4", ev, steps)
	}
	if want := warmCycles + 3; pre != want {
		t.Errorf("pre-event cycles = %d, want %d", pre, want)
	}
	if want := warmCycles + 4; c.Cycles != want {
		t.Errorf("cycles = %d, want %d", c.Cycles, want)
	}
}

// smcLoopProgram is a loop of iters iterations over two blocks — A:
// [addimm r9; jmp+0] falling into B: [mov64 rdi, 1; add rsi, rdi; ...] —
// and returns it with B's entry, the mov. With guest set, the guest
// itself rewrites the mov to mov64 rdi, 2 through ordinary stores in its
// fourth iteration (the JIT flavour), and an iteration retires 8
// instructions; otherwise an iteration retires 6.
func smcLoopProgram(iters int64, guest bool) ([]byte, uint64) {
	var e isa.Enc
	e.AddImm(isa.R9, 1)
	e.Jmp(0) // A ends; B is its fall-through
	target := e.Len()
	e.MovImm64(isa.RDI, 1)
	e.Add(isa.RSI, isa.RDI)
	jzEnd := 0
	if guest {
		e.CmpImm(isa.R9, 4)
		e.Jz(1 << 30) // patched below to land on the patch code
		jzEnd = e.Len()
	}
	e.CmpImm(isa.R9, iters)
	e.Jnz(-int64(e.Len()) - 5)
	e.Hlt()
	if guest {
		binary.LittleEndian.PutUint32(e.Buf[jzEnd-4:jzEnd], uint32(int32(e.Len()-jzEnd)))
		var patch isa.Enc
		patch.MovImm64(isa.RDI, 2)
		e.MovImm64(isa.R10, codeBase+int64(target))
		e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[0:8])))
		e.Store(isa.R10, 0, isa.R12)
		e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[2:10])))
		e.Store(isa.R10, 2, isa.R12)
		e.Jmp(int64(jzEnd) - int64(e.Len()) - 5)
	}
	return e.Buf, codeBase + uint64(target)
}

// TestSMCAtBlockTransition: B is rewritten while it sits in its table
// slot, after 24 instructions — four iterations for a rewrite by the host
// between quanta (hostRewrites), three for the guest's own store, which
// then lands inside one StepBlock batch. The next A→B transition finds
// the stale B in the table, and must refuse it and execute the new code.
func TestSMCAtBlockTransition(t *testing.T) {
	const iters = 10
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)
	for _, tc := range append(hostRewrites[:2:2], codeRewrite{"GuestStore", nil}) {
		t.Run(tc.name, func(t *testing.T) {
			code, bEntry := smcLoopProgram(iters, tc.rewrite == nil)
			prot := mem.ProtRX
			if tc.rewrite == nil {
				prot = mem.ProtRWX
			}
			c := loadProt(t, code, prot)
			for retired := uint64(0); retired < 24; {
				ev, n, _ := c.StepBlock(24 - retired)
				if ev != EvNone {
					t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
				}
				retired += n
			}
			dc := c.cache
			old := dc.blocks[bEntry]
			if old == nil || dc.table[bEntry%tableSize] != old || dc.stats.TableHits == 0 {
				t.Fatal("B is not in its table slot before the rewrite; the test is vacuous")
			}
			if tc.rewrite != nil {
				if err := tc.rewrite(c, bEntry, patch.Buf); err != nil {
					t.Fatal(err)
				}
			}
			if ev := runBlocks(t, c, 1<<20, 100); ev != EvHlt {
				t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
			}
			// Iterations 1-4 add 1, iterations 5-10 add 2.
			if want := uint64(4 + 2*(iters-4)); c.Regs[isa.RSI] != want {
				t.Errorf("rsi = %d, want %d (the stale B executed)", c.Regs[isa.RSI], want)
			}
			if reachable(dc, old) {
				t.Error("the stale B is still reachable")
			}
		})
	}
}

// TestDroppedBlockLeavesTableSlot: block A (page 0) jumps to block B
// (page 1) and back, both found in the table. After B's page is
// rewritten, the validation of B drops it from the map, its table slot
// and cur, and leaves A, on the other page, in place. The run then
// rebuilds B once and ends in the reference engine's state.
func TestDroppedBlockLeavesTableSlot(t *testing.T) {
	const iters, patchAt = 10, 4
	const bOff = mem.PageSize + 8 // B's slot differs from A's
	var e isa.Enc
	e.AddImm(isa.R9, 1)
	e.Jmp(bOff - int64(e.Len()) - 5) // A → B
	e.Nop(bOff - e.Len())
	bEntry := uint64(codeBase + bOff)
	e.MovImm64(isa.RDI, 1) // patched to mov64 rdi, 2
	e.Add(isa.RSI, isa.RDI)
	e.CmpImm(isa.R9, iters)
	e.Jnz(-int64(e.Len()) - 5) // B → A
	e.Hlt()
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)

	fast, ref := load(t, e.Buf), loadRef(t, e.Buf)
	// patchAt iterations of A then B (6 instructions each) stop with RIP
	// at A's entry and B in cur.
	var retired uint64
	for retired < 6*patchAt {
		ev, n, _ := fast.StepBlock(6*patchAt - retired)
		if ev != EvNone {
			t.Fatalf("event = %v (fault: %v)", ev, fast.FaultErr)
		}
		retired += n
	}
	for i := 0; i < 6*patchAt; i++ {
		ref.Step()
	}
	dc := fast.cache
	a, b := dc.blocks[codeBase], dc.blocks[bEntry]
	if a == nil || b == nil || dc.table[codeBase%tableSize] != a || dc.table[bEntry%tableSize] != b || dc.cur != b {
		t.Fatal("A and B are not in their table slots, B in cur, before the patch; the test is vacuous")
	}
	for _, c := range []*CPU{fast, ref} {
		if err := c.AS.WriteForce(bEntry, patch.Buf); err != nil {
			t.Fatal(err)
		}
		c.RIP = bEntry
	}
	if dc.current(b, fast.AS.CodeMutations()) {
		t.Fatal("B validated after its page was rewritten")
	}
	if reachable(dc, b) || !reachable(dc, a) {
		t.Errorf("after B's drop: B reachable %v, A reachable %v; want false, true", reachable(dc, b), reachable(dc, a))
	}
	if ev := runBlocks(t, fast, 1<<20, 100); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, fast.FaultErr)
	}
	if ev := run(t, ref, 1000); ev != EvHlt {
		t.Fatalf("ref event = %v", ev)
	}
	if fast.Cycles != ref.Cycles || fast.Regs != ref.Regs {
		t.Errorf("cycles %d, regs %v; reference %d, %v", fast.Cycles, fast.Regs, ref.Cycles, ref.Regs)
	}
	// Builds: A, B, B's replacement and the block at the final hlt.
	if s := dc.stats; s.Invalidations != 1 || s.Builds != 4 {
		t.Errorf("invalidations %d, builds %d; want 1 and 4 (B dropped once, rebuilt once)", s.Invalidations, s.Builds)
	}
	if nb := dc.blocks[bEntry]; nb == nil || nb == b || dc.table[bEntry%tableSize] != nb {
		t.Errorf("B's slot holds %p, the map %p at B's entry, dropped B %p: want the rebuilt B in both",
			dc.table[bEntry%tableSize], nb, b)
	}
}

// TestTableSlotAlternates: two blocks whose entries share a table slot
// (A at codeBase, B tableSize bytes on) run alternately, so each entry
// evicts the other from the slot and finds its own block in the map:
// each is built once, and the table serves neither.
func TestTableSlotAlternates(t *testing.T) {
	const iters = 50
	var e isa.Enc
	e.AddImm(isa.R9, 1)
	e.Jmp(tableSize - int64(e.Len()) - 5) // A → B
	e.Nop(tableSize - e.Len())
	e.CmpImm(isa.R9, iters)
	e.Jnz(-int64(e.Len()) - 5) // B → A
	e.Hlt()
	fast, ref := load(t, e.Buf), loadRef(t, e.Buf)
	if ev := runBlocks(t, fast, 1<<20, 100); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, fast.FaultErr)
	}
	if ev := run(t, ref, 1000); ev != EvHlt {
		t.Fatalf("ref event = %v", ev)
	}
	if fast.Cycles != ref.Cycles || fast.Regs != ref.Regs {
		t.Errorf("cycles %d, regs %v; reference %d, %v", fast.Cycles, fast.Regs, ref.Cycles, ref.Regs)
	}
	// Builds and misses: A, B and the block at the final hlt.
	if s := fast.DecodeCacheStats(); s.Builds != 3 || s.Misses != 3 || s.TableHits != 0 {
		t.Errorf("%+v; want 3 builds, 3 misses and no table hit", s)
	}
}

// TestDecodeCacheOverflowEviction: a straight-line program spanning more
// than maxCacheBlocks blocks must execute correctly across the overflow
// boundary twice (the second pass re-executes blocks a flush dropped),
// with the flushed blocks attributed to OverflowEvictions — not to the
// rebind counter — the map never past its bound, and no block the full
// map held reachable after the flush.
func TestDecodeCacheOverflowEviction(t *testing.T) {
	const nblocks = maxCacheBlocks + 300
	var e isa.Enc
	start := e.Len()
	for i := 0; i < nblocks; i++ {
		e.AddImm(isa.RBX, 1)
		e.Jmp(0) // every block is [addimm, jmp]
	}
	e.AddImm(isa.R9, 1)
	e.CmpImm(isa.R9, 2)
	e.Jnz(int64(start) - int64(e.Len()) - 5)
	e.Syscall()

	c := load(t, e.Buf)
	dc := c.cache
	step := func() {
		if ev, _, _ := c.StepBlock(2); ev != EvNone {
			t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
		}
	}
	for len(dc.blocks) < maxCacheBlocks {
		step()
	}
	old := maps.Clone(dc.blocks)
	if dc.table == ([tableSize]*cachedBlock{}) {
		t.Fatal("the table is empty before the flush; the test is vacuous")
	}
	for dc.stats.OverflowEvictions == 0 {
		step()
	}
	for _, b := range old {
		if reachable(dc, b) {
			t.Fatalf("block at %#x reachable after the overflow flush", b.entry)
		}
	}
	if ev := runBlocks(t, c, 1<<20, 1000); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if want := uint64(2 * nblocks); c.Regs[isa.RBX] != want {
		t.Errorf("rbx = %d, want %d (the flush corrupted execution)", c.Regs[isa.RBX], want)
	}
	s := c.DecodeCacheStats()
	if s.OverflowEvictions == 0 {
		t.Error("overflow did not flush (vacuous: grow the program?)")
	}
	if s.RebindFlushes != 0 {
		t.Errorf("overflow counted as rebind flush: %+v", s)
	}
	if len(dc.blocks) > maxCacheBlocks {
		t.Errorf("map grew past the bound: %d blocks", len(dc.blocks))
	}
}
