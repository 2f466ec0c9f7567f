package cpu

import (
	"slices"

	"lazypoline/internal/isa"
)

// Hot traces (DESIGN.md §11): once a block head has been entered through
// the chain tracePromoteThreshold times, its hottest successor path is
// flattened into a single instruction sequence (bounded at
// maxTraceBlocks blocks) that executes without per-block transition
// work. Traces are shortcuts with the same validation discipline as
// chain links — every constituent block's page generations are checked
// at entry and after any code mutation, and a per-instruction pc match
// catches branches that leave the recorded path mid-trace. Three guest
// idioms hot enough to show up in every benchmark retire in closed form
// instead: straight NOP runs (the zpoline sled) and the counted loop
// `addi r,-1 ; jnz` (the web servers' per-request app work), one O(1)
// update per visit (DESIGN.md §18), and stack runs (the interposer stub's
// register save/restore), one page access per run (stackrun.go).

// tracePromoteThreshold is the chained-entry count at which a block head
// is promoted (and re-attempted on later multiples if promotion found
// fewer than two linked blocks).
const tracePromoteThreshold = 32

// maxTraceBlocks bounds trace length so one promotion cannot flatten an
// unbounded chain.
const maxTraceBlocks = 8

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

// TraceStats counts hot-trace and fused-handler activity.
type TraceStats struct {
	// Promotions counts traces built.
	Promotions uint64
	// Invalidations counts traces torn down because a constituent block
	// was dropped or evicted.
	Invalidations uint64
	// Runs counts trace entries; Insts counts instructions retired inside
	// traces.
	Runs  uint64
	Insts uint64
	// FusedLoopIters counts countdown iterations retired in closed form;
	// FusedNopInsts counts NOPs retired by the fused sled handler, and
	// FusedStackInsts instructions retired as stack runs.
	FusedLoopIters  uint64
	FusedNopInsts   uint64
	FusedStackInsts uint64
}

// TraceStats returns a snapshot of the trace counters; zero on a
// reference CPU.
func (c *CPU) TraceStats() TraceStats {
	if c.cache == nil {
		return TraceStats{}
	}
	return c.cache.tstats
}

// traceRun is a promoted trace: the constituent blocks in execution
// order, with their instructions flattened into one pcs/insts pair.
// starts[j] is the flat index of blocks[j]'s first instruction, used to
// map a flat position back to (block, offset) when the trace bails. The
// constituents' stack runs are read off the blocks themselves (runAfter).
type traceRun struct {
	blocks []*cachedBlock
	starts []int
	pcs    []uint64
	insts  []isa.Inst
	dead   bool
}

// runAfter returns the flat position and length of the first stack run in
// blocks[j:], and the index of the block after the one holding it; at is
// -1, which no position matches, when there is none.
func (tr *traceRun) runAfter(j int) (at, n, next int) {
	for ; j < len(tr.blocks); j++ {
		if r := tr.blocks[j].run; r.at >= 0 {
			return tr.starts[j] + int(r.at), int(r.n), j + 1
		}
	}
	return -1, 0, j
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

// kernelTerminator reports whether b's final instruction always hands
// control to the kernel — a trace never extends past such a block
// because the event ends trace execution anyway.
func kernelTerminator(b *cachedBlock) bool {
	in := &b.insts[len(b.insts)-1]
	switch in.Mnem {
	case isa.MSyscall, isa.MSysenter:
		return true
	case isa.MOp:
		switch in.Op {
		case isa.OpHlt, isa.OpTrap, isa.OpHcall:
			return true
		}
	}
	return false
}

// hotSucc picks the successor to extend a trace through: the hotter of
// the two chained slots, fall-through winning ties for determinism.
func hotSucc(b *cachedBlock) *cachedBlock {
	f, t := b.succ[chainSlotFallthrough], b.succ[chainSlotBranch]
	switch {
	case f == nil:
		return t
	case t == nil:
		return f
	case t.execCount > f.execCount:
		return t
	default:
		return f
	}
}

// runSpecialized dispatches the head-of-block fast paths after a chained
// transition landed on b (RIP == b.entry, curIdx == 0, b validated).
// Returns done=true when an event fired or the step budget ran out
// inside a handler; done=false means chained execution should continue
// from wherever (cur, curIdx) now points.
func (c *CPU) runSpecialized(b *cachedBlock, max uint64, steps *uint64, pre *uint64) (Event, bool) {
	dc := c.cache
	switch b.fused {
	case fusedNopSled:
		return c.runFusedNops(b, max, steps, pre)
	case fusedCountdown:
		return c.runCountdown(b, max, steps, pre)
	}
	if tr := b.trace; tr != nil && !tr.dead {
		return c.runTrace(tr, max, steps, pre)
	}
	if b.trace == nil && b.execCount >= tracePromoteThreshold && b.execCount%tracePromoteThreshold == 0 {
		dc.buildTrace(b)
	}
	return EvNone, false
}

// buildTrace promotes head into a trace by walking its hottest chained
// successors. Promotion requires at least two blocks; fused blocks and
// revisits (other than closing back to head, which simply ends the walk)
// stop the extension. A head that cannot be promoted is offered again
// every tracePromoteThreshold entries, so a failed walk allocates nothing.
func (dc *decodeCache) buildTrace(head *cachedBlock) {
	var walk [maxTraceBlocks]*cachedBlock
	blocks := append(walk[:0], head)
	b := head
	for len(blocks) < maxTraceBlocks {
		if kernelTerminator(b) {
			break
		}
		next := hotSucc(b)
		if next == nil || next.dropped || slices.Contains(blocks, next) || next.fused != fusedNone {
			break
		}
		blocks = append(blocks, next)
		b = next
	}
	if len(blocks) < 2 {
		return
	}
	tr := &traceRun{blocks: slices.Clone(blocks)}
	for _, bb := range tr.blocks {
		tr.starts = append(tr.starts, len(tr.pcs))
		tr.pcs = append(tr.pcs, bb.pcs...)
		tr.insts = append(tr.insts, bb.insts...)
		bb.traces = append(bb.traces, tr)
	}
	head.trace = tr
	dc.tstats.Promotions++
}

// invalidateTrace tears a trace down: marks it dead, detaches it from
// its head and every constituent block. Idempotent.
func (dc *decodeCache) invalidateTrace(tr *traceRun) {
	if tr.dead {
		return
	}
	tr.dead = true
	if h := tr.blocks[0]; h.trace == tr {
		h.trace = nil
	}
	for _, b := range tr.blocks {
		removeTrace(b, tr)
	}
	dc.tstats.Invalidations++
}

// removeTrace deletes tr from b's membership list (unordered).
func removeTrace(b *cachedBlock, tr *traceRun) {
	for i, t := range b.traces {
		if t == tr {
			b.traces[i] = b.traces[len(b.traces)-1]
			b.traces = b.traces[:len(b.traces)-1]
			return
		}
	}
}

// restore maps the flat trace position i (the next instruction index,
// 0..len(pcs)) back onto the interpreter's (cur, curIdx) state. A
// position exactly on a block boundary resolves to the *finished*
// predecessor block, so the chain-link planting in cachedInst still sees
// a completed block when the trace bails at a boundary.
func (tr *traceRun) restore(dc *decodeCache, i int) {
	j := 0
	for j+1 < len(tr.starts) && tr.starts[j+1] < i {
		j++
	}
	b := tr.blocks[j]
	if b.dropped {
		dc.cur = nil
		return
	}
	dc.cur, dc.curIdx = b, i-tr.starts[j]
}

// runTrace executes a promoted trace. Entry contract mirrors
// runSpecialized; the per-instruction pc check plus generation
// revalidation after every code mutation make the trace semantically
// identical to block-at-a-time execution.
func (c *CPU) runTrace(tr *traceRun, max uint64, steps *uint64, pre *uint64) (Event, bool) {
	dc := c.cache
	mut := dc.as.CodeMutations()
	for _, b := range tr.blocks {
		if b.mut == mut || dc.revalidate(b) {
			continue
		}
		// drop unlinks b, which tears this trace down too.
		dc.drop(b)
		tr.restore(dc, 0)
		return EvNone, false
	}
	dc.tstats.Runs++
	n := len(tr.pcs)
	i := 0
	runAt, runN, runNext := tr.runAfter(0)
	for {
		if i >= n {
			// Clean completion: leave the interpreter at the end of the
			// final block so chaining continues from there.
			tr.restore(dc, i)
			return EvNone, false
		}
		if *steps >= max {
			tr.restore(dc, i)
			return EvNone, true
		}
		if tr.pcs[i] != c.RIP {
			// A branch left the recorded path.
			tr.restore(dc, i)
			return EvNone, false
		}
		if i == runAt {
			end := i + runN
			runAt, runN, runNext = tr.runAfter(runNext)
			if c.runStack(tr.pcs[i:end], tr.insts[i:end], max, steps, pre) {
				dc.tstats.Insts += uint64(end - i)
				i = end
				continue
			}
		}
		*pre = c.Cycles
		ev := c.execInst(tr.pcs[i], &tr.insts[i])
		i++
		*steps++
		c.SuperblockInsts++
		dc.stats.Hits++
		dc.tstats.Insts++
		if ev != EvNone {
			tr.restore(dc, i)
			return ev, true
		}
		if m := dc.as.CodeMutations(); m != mut {
			mut = m
			for _, b := range tr.blocks {
				if b.mut == mut || dc.revalidate(b) {
					continue
				}
				dc.drop(b)
				tr.restore(dc, i)
				return EvNone, false
			}
		}
	}
}

// runCountdown retires whole iterations of `addi r,-1 ; jnz entry` in one
// O(1) update. m is the number of iterations the interpreter would run
// before either r reaches zero (r itself, or 2^64 when r is already zero:
// the first addi wraps it) or the budget cannot fit another whole pass;
// every piece of state is then set to what m trips through execInst leave
// behind (DESIGN.md §18 argues each identity). The body has no store and
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
		dc.tstats.FusedLoopIters += m
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
	dc.tstats.FusedNopInsts += k
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
