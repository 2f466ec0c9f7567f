package cpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// chainedProgram exercises every chained fast path at once: a hot loop
// split into three blocks by jmp+0 instructions (so block chaining and
// trace promotion both engage), a leading NOP run in one block (the
// fused sled), and memory traffic (the D-TLB). 200 iterations crosses
// the 32-entry trace promotion threshold many times over.
func chainedProgram() []byte {
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

// TestChainToggleCombinations: every {cache, superblock, chain, traces}
// combination must (a) report effective state from the getters — a layer
// is only "enabled" if everything it rides on is live — and (b) execute
// identically to the everything-off reference.
func TestChainToggleCombinations(t *testing.T) {
	ref := load(t, chainedProgram())
	ref.SetDecodeCache(false)
	ref.SetSuperblocks(false)
	ref.SetChaining(false)
	ref.SetTraces(false)
	if ev := run(t, ref, 50000); ev != EvSyscall {
		t.Fatalf("ref event = %v (fault: %v)", ev, ref.FaultErr)
	}
	for i := 0; i < 16; i++ {
		cache := i&1 != 0
		superblock := i&2 != 0
		chain := i&4 != 0
		traces := i&8 != 0
		name := fmt.Sprintf("cache=%v,superblock=%v,chain=%v,traces=%v", cache, superblock, chain, traces)
		t.Run(name, func(t *testing.T) {
			c := load(t, chainedProgram())
			c.SetDecodeCache(cache)
			c.SetSuperblocks(superblock)
			c.SetChaining(chain)
			c.SetTraces(traces)

			if got := c.DecodeCacheEnabled(); got != cache {
				t.Errorf("DecodeCacheEnabled() = %v, want %v", got, cache)
			}
			wantSB := superblock && cache
			if got := c.SuperblocksEnabled(); got != wantSB {
				t.Errorf("SuperblocksEnabled() = %v, want %v (effective state)", got, wantSB)
			}
			wantChain := chain && wantSB
			if got := c.ChainingEnabled(); got != wantChain {
				t.Errorf("ChainingEnabled() = %v, want %v (effective state)", got, wantChain)
			}
			wantTraces := traces && wantChain
			if got := c.TracesEnabled(); got != wantTraces {
				t.Errorf("TracesEnabled() = %v, want %v (effective state)", got, wantTraces)
			}

			if ev := runBlocks(t, c, 1<<20, 50000); ev != EvSyscall {
				t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
			}
			if c.Cycles != ref.Cycles {
				t.Errorf("cycles = %d, want %d", c.Cycles, ref.Cycles)
			}
			if c.Regs != ref.Regs {
				t.Error("register files differ from reference")
			}
			// Counters must reflect effective state, not just the toggles.
			cs := c.ChainStats()
			if wantChain && cs.Transitions == 0 {
				t.Error("chaining effective but zero chained transitions (vacuous)")
			}
			if !wantChain && cs != (ChainStats{}) {
				t.Errorf("chaining ineffective but counters advanced: %+v", cs)
			}
			ts := c.TraceStats()
			if wantTraces && ts.Promotions == 0 {
				t.Error("traces effective but zero promotions (vacuous)")
			}
			if !wantTraces && ts != (TraceStats{}) {
				t.Errorf("traces ineffective but counters advanced: %+v", ts)
			}
		})
	}
}

// TestChainCountsWork: the full fast path on the chained program must
// actually link blocks, follow chains, promote a trace, run it, and
// retire NOPs through the fused sled handler.
func TestChainCountsWork(t *testing.T) {
	c := load(t, chainedProgram())
	if ev := runBlocks(t, c, 1<<20, 100); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	cs, ts := c.ChainStats(), c.TraceStats()
	if cs.Links == 0 || cs.Transitions == 0 {
		t.Errorf("chain did no work: %+v", cs)
	}
	if ts.Promotions == 0 || ts.Runs == 0 || ts.Insts == 0 {
		t.Errorf("traces did no work: %+v", ts)
	}
	if ts.FusedNopInsts == 0 {
		t.Errorf("fused NOP sled did no work: %+v", ts)
	}
}

// TestSelfLoopRunsChained: a memcpy-shaped self-loop is no fused idiom;
// it runs through the chained core, following its link to itself once per
// iteration, and executes identically to the all-off reference.
func TestSelfLoopRunsChained(t *testing.T) {
	const iters = 500
	c := load(t, selfLoopProgram(iters))
	if ev := runBlocks(t, c, 1<<20, 100); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if ts := c.TraceStats(); ts.FusedLoopIters != 0 || ts.FusedStackInsts != 0 {
		t.Errorf("a fused handler retired part of the loop: %+v", ts)
	}
	// The first back edges resolve through dispatched Steps, which plant
	// the link.
	if cs := c.ChainStats(); cs.Transitions < iters-3 {
		t.Errorf("%d chained transitions for %d iterations", cs.Transitions, iters)
	}
	ref := load(t, selfLoopProgram(iters))
	ref.SetDecodeCache(false)
	ref.SetSuperblocks(false)
	if ev := run(t, ref, 50000); ev != EvSyscall {
		t.Fatalf("ref event = %v", ev)
	}
	if c.Cycles != ref.Cycles || c.Regs != ref.Regs {
		t.Errorf("self-loop diverged: cycles %d vs %d", c.Cycles, ref.Cycles)
	}
}

// TestStepBlockBoundaryAcrossChaining: sweeping the budget across a
// multi-block program, every StepBlock call must report the identical
// (event, steps, pre) triple and leave identical CPU state whether
// chaining and traces are on or off — including the boundary case where
// the block's final instruction raises its event exactly as steps
// reaches max.
func TestStepBlockBoundaryAcrossChaining(t *testing.T) {
	type call struct {
		ev     Event
		steps  uint64
		pre    uint64
		cycles uint64
		rip    uint64
	}
	exec := func(chain, traces bool, max uint64) []call {
		c := load(t, chainedProgram())
		c.SetChaining(chain)
		c.SetTraces(traces)
		var calls []call
		for i := 0; i < 50000; i++ {
			ev, steps, pre := c.StepBlock(max)
			calls = append(calls, call{ev, steps, pre, c.Cycles, c.RIP})
			if ev != EvNone {
				if ev != EvSyscall {
					t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
				}
				return calls
			}
		}
		t.Fatal("no syscall")
		return nil
	}
	for _, max := range []uint64{1, 2, 3, 5, 7, 8, 9, 64, 1 << 20} {
		ref := exec(false, false, max)
		for _, mode := range []struct {
			name          string
			chain, traces bool
		}{
			{"chain", true, false},
			{"chain+traces", true, true},
		} {
			got := exec(mode.chain, mode.traces, max)
			if len(got) != len(ref) {
				t.Fatalf("max %d %s: %d StepBlock calls, want %d", max, mode.name, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("max %d %s: call %d = %+v, want %+v", max, mode.name, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestStepBlockEventAtBudgetBoundary: when a chained block's final
// instruction raises the event exactly as the budget is consumed, the
// pre cycle-replay value must be the cycle count through the
// second-to-last instruction, with chaining on and off.
func TestStepBlockEventAtBudgetBoundary(t *testing.T) {
	var e isa.Enc
	e.AddImm(isa.RBX, 1)
	e.Jmp(0) // force a chained transition right before the event block
	e.AddImm(isa.RBX, 1)
	e.Syscall()
	for _, chain := range []bool{true, false} {
		t.Run(fmt.Sprintf("chain=%v", chain), func(t *testing.T) {
			c := load(t, e.Buf)
			c.SetChaining(chain)
			// Warm the cache and the chain link, then rerun the same code.
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
		})
	}
}

// smcChainProgram builds a two-block loop — A: [addimm, jmp+0] chained to
// B: [mov64 rdi, ...; add rsi, rdi; cmp; jnz A] — where block B's mov is
// the patch target. Returns the program and the offset of the target.
func smcChainProgram(iters int64) ([]byte, int) {
	var e isa.Enc
	loop := e.Len()
	e.AddImm(isa.R9, 1)
	e.Jmp(0) // A ends; fall-through chain link into B
	target := e.Len()
	e.MovImm64(isa.RDI, 1) // patched to mov64 rdi, 2 mid-run
	e.Add(isa.RSI, isa.RDI)
	e.CmpImm(isa.R9, iters)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Hlt()
	return e.Buf, target
}

// TestSMCDuringChainedTransitionWriteForce: with the A→B chain link hot,
// the host rewrites B between quanta (the ptrace/kernel-patch flavour).
// The next chained transition must revalidate B and execute the new
// code, not the stale cached decode the link points at.
func TestSMCDuringChainedTransitionWriteForce(t *testing.T) {
	const iters, patchAt = 10, 4
	prog, target := smcChainProgram(iters)
	c := load(t, prog)
	// Each iteration retires 6 instructions; stop exactly after patchAt
	// full iterations, mid-loop with the chain link established and cur
	// parked on block B's completed body.
	var retired uint64
	for retired < 6*patchAt {
		ev, n, _ := c.StepBlock(6*patchAt - retired)
		if ev != EvNone {
			t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
		}
		retired += n
	}
	if cs := c.ChainStats(); cs.Transitions == 0 {
		t.Fatal("no chained transitions before the patch; the test is vacuous")
	}
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)
	if err := c.AS.WriteForce(codeBase+uint64(target), patch.Buf); err != nil {
		t.Fatal(err)
	}
	if ev := runBlocks(t, c, 1<<20, 100); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	// patchAt iterations added 1, the remaining iters-patchAt added 2.
	if want := uint64(patchAt + 2*(iters-patchAt)); c.Regs[isa.RSI] != want {
		t.Errorf("rsi = %d, want %d (stale block executed through a chain link)", c.Regs[isa.RSI], want)
	}
}

// TestSMCDuringChainedTransitionProtectFlip: same shape, but the rewrite
// uses the lazypoline slow-path flavour — mprotect RW, ordinary write,
// mprotect back to RX — which must invalidate the chained target via the
// generation bump even though the bytes are written with ordinary
// stores.
func TestSMCDuringChainedTransitionProtectFlip(t *testing.T) {
	const iters, patchAt = 10, 4
	prog, target := smcChainProgram(iters)
	c := load(t, prog)
	var retired uint64
	for retired < 6*patchAt {
		ev, n, _ := c.StepBlock(6*patchAt - retired)
		if ev != EvNone {
			t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
		}
		retired += n
	}
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)
	if err := c.AS.Protect(codeBase, mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.WriteAt(codeBase+uint64(target), patch.Buf); err != nil {
		t.Fatal(err)
	}
	if err := c.AS.Protect(codeBase, mem.PageSize, mem.ProtRX); err != nil {
		t.Fatal(err)
	}
	if ev := runBlocks(t, c, 1<<20, 100); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if want := uint64(patchAt + 2*(iters-patchAt)); c.Regs[isa.RSI] != want {
		t.Errorf("rsi = %d, want %d (stale block executed through a chain link)", c.Regs[isa.RSI], want)
	}
}

// TestSMCGuestStoreThroughChain: the guest itself patches block B from
// inside the loop (the JIT flavour), so the store and the next chained
// A→B transition happen inside one StepBlock batch.
func TestSMCGuestStoreThroughChain(t *testing.T) {
	const iters = 10
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)

	var e isa.Enc
	loop := e.Len()
	e.AddImm(isa.R9, 1)
	e.Jmp(0) // A→B chain edge
	target := e.Len()
	e.MovImm64(isa.RDI, 1) // rewritten by the guest at iteration 4
	e.Add(isa.RSI, isa.RDI)
	e.CmpImm(isa.R9, 4)
	jzPos := e.Len()
	e.Jz(1 << 30) // patched below to land on the patch code
	back := e.Len()
	e.CmpImm(isa.R9, iters)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Hlt()
	patchCode := e.Len()
	e.MovImm64(isa.R10, codeBase+int64(target))
	e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[0:8])))
	e.Store(isa.R10, 0, isa.R12)
	e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[2:10])))
	e.Store(isa.R10, 2, isa.R12)
	e.Jmp(int64(back) - int64(e.Len()) - 5)
	jzEnd := jzPos + 5
	binary.LittleEndian.PutUint32(e.Buf[jzEnd-4:jzEnd], uint32(int32(patchCode-jzEnd)))

	c := loadProt(t, e.Buf, mem.ProtRWX)
	if ev := runBlocks(t, c, 1<<20, 100); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	// Iterations 1-4 add 1; the patch lands during iteration 4, so
	// iterations 5-10 add 2.
	if want := uint64(4 + 2*(iters-4)); c.Regs[isa.RSI] != want {
		t.Errorf("rsi = %d, want %d (stale chained block after guest store)", c.Regs[isa.RSI], want)
	}
}

// TestDecodeCacheStatsSurviveToggle pins the counter-lifetime semantics:
// SetDecodeCache(false) then (true) must preserve the cumulative
// DecodeCacheStats/ChainStats/TraceStats rather than silently zeroing
// them mid-run, while a cache disabled from birth still reports zeros.
func TestDecodeCacheStatsSurviveToggle(t *testing.T) {
	c := load(t, chainedProgram())
	var retired uint64
	for retired < 600 {
		ev, n, _ := c.StepBlock(600 - retired)
		if ev != EvNone {
			t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
		}
		retired += n
	}
	mid, midChain, midTrace := c.DecodeCacheStats(), c.ChainStats(), c.TraceStats()
	if mid.Hits == 0 || midChain.Transitions == 0 {
		t.Fatalf("warmup did no cached work: %+v %+v", mid, midChain)
	}

	c.SetDecodeCache(false)
	if got := c.DecodeCacheStats(); got != mid {
		t.Errorf("stats after disable = %+v, want preserved %+v", got, mid)
	}
	if got := c.ChainStats(); got != midChain {
		t.Errorf("chain stats after disable = %+v, want preserved %+v", got, midChain)
	}
	if got := c.TraceStats(); got != midTrace {
		t.Errorf("trace stats after disable = %+v, want preserved %+v", got, midTrace)
	}

	// Uncached execution must not advance the preserved counters.
	if ev, _, _ := c.StepBlock(60); ev != EvNone {
		t.Fatalf("uncached stretch hit event %v", ev)
	}
	if got := c.DecodeCacheStats(); got != mid {
		t.Errorf("stats advanced while disabled: %+v vs %+v", got, mid)
	}

	c.SetDecodeCache(true)
	if ev := runBlocks(t, c, 1<<20, 100); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	fin := c.DecodeCacheStats()
	if fin.Hits <= mid.Hits || fin.Builds < mid.Builds {
		t.Errorf("re-enabled stats did not continue from preserved values: %+v vs %+v", fin, mid)
	}
	if got := c.ChainStats(); got.Transitions < midChain.Transitions {
		t.Errorf("chain stats restarted: %+v vs %+v", got, midChain)
	}
}

// TestDecodeCacheOverflowEviction: a straight-line program spanning more
// than maxCacheBlocks blocks must execute correctly across the overflow
// boundary twice (the second pass re-executes through evicted state),
// with bounded FIFO eviction attributed to OverflowEvictions — not to
// the rebind counter, and never a whole-map flush.
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
	if ev := runBlocks(t, c, 1<<20, 1000); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if want := uint64(2 * nblocks); c.Regs[isa.RBX] != want {
		t.Errorf("rbx = %d, want %d (eviction corrupted execution)", c.Regs[isa.RBX], want)
	}
	s := c.DecodeCacheStats()
	if s.OverflowEvictions == 0 {
		t.Error("overflow did not evict (vacuous: shrink the program?)")
	}
	if s.RebindFlushes != 0 {
		t.Errorf("overflow counted as rebind flush: %+v", s)
	}
	if dc := c.cache; dc != nil && len(dc.blocks) > maxCacheBlocks {
		t.Errorf("map grew past the bound: %d blocks", len(dc.blocks))
	}
}

// TestDecodeCacheOverflowBounded: a single pass that overflows the cache
// by a few hundred blocks must trigger exactly one eviction batch — the
// old behaviour discarded the entire map (maxCacheBlocks blocks) at the
// first overflow.
func TestDecodeCacheOverflowBounded(t *testing.T) {
	const nblocks = maxCacheBlocks + 300
	var e isa.Enc
	for i := 0; i < nblocks; i++ {
		e.AddImm(isa.RBX, 1)
		e.Jmp(0)
	}
	e.Syscall()
	c := load(t, e.Buf)
	if ev := runBlocks(t, c, 1<<20, 1000); ev != EvSyscall {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if want := uint64(nblocks); c.Regs[isa.RBX] != want {
		t.Errorf("rbx = %d, want %d", c.Regs[isa.RBX], want)
	}
	s := c.DecodeCacheStats()
	if s.OverflowEvictions != evictBatch {
		t.Errorf("overflow evictions = %d, want exactly one batch of %d (a whole-map flush would be %d)",
			s.OverflowEvictions, evictBatch, maxCacheBlocks)
	}
}

// TestDecodeCacheRebindCounter: an address-space swap (execve) must count
// as a rebind flush, not an overflow eviction.
func TestDecodeCacheRebindCounter(t *testing.T) {
	var e1 isa.Enc
	e1.MovImm64(isa.RDI, 1)
	e1.Hlt()
	c := load(t, e1.Buf)
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v", ev)
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
	s := c.DecodeCacheStats()
	if s.RebindFlushes != 1 {
		t.Errorf("rebind flushes = %d, want 1", s.RebindFlushes)
	}
	if s.OverflowEvictions != 0 {
		t.Errorf("rebind counted as overflow: %+v", s)
	}
}
