package cpu

import "lazypoline/internal/isa"

// Fused idiom handlers (DESIGN.md §3): three guest idioms hot enough to
// show up in every benchmark retire in closed form. Straight NOP runs
// (the zpoline sled) and the counted loop `addi r,-1 ; jnz` (the web
// servers' per-request app work) take one O(1) update when a chained
// transition lands on their block's head (DESIGN.md §3); stack runs
// (the interposer stub's register save/restore) take one page access
// wherever they sit in a block (stackrun.go).

// minNopSled is the shortest leading NOP run worth fusing.
const minNopSled = 4

// fusedKind classifies a block for the idiom-specific handlers.
type fusedKind uint8

const (
	fusedNone fusedKind = iota
	// fusedNopSled: the block starts with >= minNopSled consecutive NOPs.
	fusedNopSled
	// fusedCountdown: exactly `addi r,-1 ; jnz <block entry>`. The only
	// self-loop the serving guests execute; retired in closed form.
	fusedCountdown
)

// FusedStats counts fused-handler activity.
type FusedStats struct {
	// FusedLoopIters counts countdown iterations retired in closed form;
	// FusedNopInsts counts NOPs retired by the fused sled handler, and
	// FusedStackInsts instructions retired as stack runs.
	FusedLoopIters  uint64
	FusedNopInsts   uint64
	FusedStackInsts uint64
}

// FusedStats returns a snapshot of the fused-handler counters; zero on a
// reference CPU.
func (c *CPU) FusedStats() FusedStats {
	if c.cache == nil {
		return FusedStats{}
	}
	return c.cache.fstats
}

// classifyFused inspects a freshly built block and records which fused
// handler (if any) may execute its head, and where its stack run is.
func classifyFused(b *cachedBlock) {
	n := len(b.insts)
	nops := 0
	for nops < n && isNop(&b.insts[nops]) {
		nops++
	}
	// NOPs are never part of a stack run, so the search starts after them.
	b.run = findStackRun(b.insts, nops)
	switch {
	case nops >= minNopSled:
		b.fused, b.nopLen = fusedNopSled, int32(nops)
	case n == 2 && isCountdown(b):
		b.fused = fusedCountdown
	}
}

func isNop(in *isa.Inst) bool { return in.Mnem == isa.MOp && in.Op == isa.OpNop }

// isCountdown reports whether the two-instruction block b is exactly
// `addi r,-1 ; jnz <b.entry>`.
func isCountdown(b *cachedBlock) bool {
	first, last := &b.insts[0], &b.insts[1]
	return first.Mnem == isa.MOp && first.Op == isa.OpAddImm && first.Imm == -1 &&
		last.Mnem == isa.MOp && last.Op == isa.OpJnz &&
		b.pcs[1]+uint64(last.Len)+uint64(last.Imm) == b.entry
}

// runSpecialized dispatches the fused handler of b's head after a chained
// transition landed on b (RIP == b.entry, curIdx == 0, b validated).
// Returns done=true when the step budget ran out inside a handler;
// done=false means chained execution should continue from wherever
// (cur, curIdx) now points.
func (c *CPU) runSpecialized(b *cachedBlock, max uint64, steps *uint64, pre *uint64) (Event, bool) {
	switch b.fused {
	case fusedNopSled:
		return c.runFusedNops(b, max, steps, pre)
	case fusedCountdown:
		return c.runCountdown(b, max, steps, pre)
	}
	return EvNone, false
}

// runCountdown retires whole iterations of `addi r,-1 ; jnz entry` in one
// O(1) update. m is the number of iterations the interpreter would run
// before either r reaches zero (r itself, or 2^64 when r is already zero:
// the first addi wraps it) or the budget cannot fit another whole pass;
// every piece of state is then set to what m trips through execInst leave
// behind (DESIGN.md §3 argues each identity). The body has no store and
// cannot fault or raise an event, so the entry revalidation covers all m
// iterations. With m == 0 nothing is retired and the caller's
// per-instruction path finishes the quantum.
func (c *CPU) runCountdown(b *cachedBlock, max uint64, steps *uint64, pre *uint64) (Event, bool) {
	dc := c.cache
	if b.mut != dc.as.CodeMutations() && !dc.revalidate(b) {
		dc.drop(b)
		return EvNone, false
	}
	reg := b.insts[0].A
	r := c.Regs[reg]
	m := (max - *steps) / 2
	if r != 0 && r < m {
		m = r
	}
	if m > 0 {
		// The first addi ends any NOP run; nothing after it starts one.
		c.FlushNopBatch()
		c.Cycles += 2 * m * c.Costs.Insn
		*pre = c.Cycles - c.Costs.Insn
		c.setArith(reg, r-m)
		c.RIP = b.entry
		if c.ZF {
			c.RIP = b.end
		}
		dc.curIdx = 2
		*steps += 2 * m
		c.SuperblockInsts += 2 * m
		dc.stats.Hits += 2 * m
		dc.fstats.FusedLoopIters += m
	}
	return EvNone, *steps >= max
}

// runFusedNops retires a leading NOP run with closed-form batch
// accounting — one O(1) update replacing nopLen trips through execInst.
// The arithmetic reproduces execInst's batching exactly: Cycles grows by
// one Insn per completed NopsPerCycle-sized batch, the accumulator
// carries the remainder, and *pre lands on the cycle count immediately
// before the final NOP. Bails (done=false, nothing retired) when
// batching is off — the interpreter path is then the exact semantics.
func (c *CPU) runFusedNops(b *cachedBlock, max uint64, steps *uint64, pre *uint64) (Event, bool) {
	npc := c.Costs.NopsPerCycle
	if npc <= 1 {
		return EvNone, false
	}
	dc := c.cache
	k := uint64(b.nopLen)
	if rem := max - *steps; k > rem {
		k = rem
	}
	if k == 0 {
		return EvNone, false
	}
	accum0 := c.nopAccum
	full := (accum0 + k) / npc
	*pre = c.Cycles + ((accum0+k-1)/npc)*c.Costs.Insn
	c.Cycles += full * c.Costs.Insn
	c.NopBatches += full
	c.nopAccum = (accum0 + k) % npc
	*steps += k
	c.SuperblockInsts += k
	dc.stats.Hits += k
	dc.fstats.FusedNopInsts += k
	if int(k) < len(b.pcs) {
		c.RIP = b.pcs[k]
	} else {
		c.RIP = b.end
	}
	dc.curIdx = int(k)
	if *steps >= max {
		return EvNone, true
	}
	return EvNone, false
}
