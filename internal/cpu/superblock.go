package cpu

// The fast engine's dispatch loop (DESIGN.md §3): the scheduler hands the
// CPU a whole budget of instructions (the rest of the quantum), and
// StepBlock resolves RIP to a block (decodeCache.enter: the current
// block, the block table, the map or a build) and retires it (runBlock)
// until an event or the budget. Events — syscalls, faults, traps, hcalls,
// halt — end the batch immediately, so the kernel observes exactly the
// same stopping points as per-Step scheduling: signal checks, quantum
// expiry and chaos injection all happen between the same instructions
// either way.
//
// Self-modifying code stays exact because enter validates every block it
// resolves, and runBlock re-checks the address space's code-mutation
// counter before every instruction and revalidates page generations the
// moment it changes. The block table adds no trust: a block it yields
// gets the identical validation, and the fused handlers (fused.go) run
// only on a block so validated.

// StepBlock executes up to max instructions, stopping early at the first
// non-EvNone event. It returns the event (EvNone means the budget was
// exhausted without one), the number of instructions retired, and the
// cycle counter value from just before the final instruction. On a
// reference CPU it is one Step.
//
// The third value exists for the kernel clock: the per-Step scheduler
// loop refreshed its max-cycles clock after every instruction, so when
// an event instruction entered the kernel the clock held the cycle count
// through the *previous* instruction. A batching scheduler replays that
// exactly by folding in the pre-event value (when the batch retired more
// than one instruction) before handling the event. Nothing else observes
// the clock mid-batch, so batching stays semantically invisible — and
// the contract holds across block transitions and fused handlers, which
// thread the same pre pointer through every instruction they retire.
func (c *CPU) StepBlock(max uint64) (Event, uint64, uint64) {
	pre := c.Cycles
	if max == 0 {
		return EvNone, 0, pre
	}
	if c.cache == nil {
		return c.Step(), 1, pre
	}
	var steps uint64
	ev, insts := EvNone, c.SuperblockInsts
	for ev == EvNone && steps < max {
		if b := c.cache.enter(c); b != nil {
			ev = c.runBlock(b, max, &steps, &pre)
			continue
		}
		pre = c.Cycles
		ev = c.stepUncached(c.RIP)
		steps++
	}
	if c.SuperblockInsts > insts {
		c.SuperblockRuns++
	}
	return ev, steps, pre
}

// runBlock retires b from curIdx, which enter just validated, until b
// ends, an event, the budget, or a code mutation that invalidates b. A
// block entered at its head with no hook attached first runs its fused
// handler, which retires what it can in closed form and leaves curIdx at
// the exact resume position. *steps counts the instructions retired this
// StepBlock call and *pre tracks c.Cycles as of immediately before the
// most recent one (StepBlock's contract).
func (c *CPU) runBlock(b *cachedBlock, max uint64, steps, pre *uint64) Event {
	dc := c.cache
	if dc.curIdx == 0 && c.Hook == nil {
		switch b.fused {
		case fusedNopSled:
			c.runFusedNops(b, max, steps, pre)
		case fusedCountdown:
			c.runCountdown(b, max, steps, pre)
		}
	}
	for dc.curIdx < len(b.pcs) && *steps < max {
		// Another CPU sharing this address space mutated code, or the
		// previous instruction did (stores bump the counter only on
		// exec-page writes).
		if !dc.current(b, dc.as.CodeMutations()) {
			return EvNone
		}
		if int32(dc.curIdx) == b.run.at {
			// A stack run cannot write code, so b stays current.
			if end := dc.curIdx + int(b.run.n); c.runStack(b.pcs[dc.curIdx:end], b.insts[dc.curIdx:end], max, steps, pre) {
				dc.curIdx = end
				continue
			}
		}
		pc, in := b.pcs[dc.curIdx], &b.insts[dc.curIdx]
		dc.curIdx++
		dc.stats.Hits++
		c.SuperblockInsts++
		*pre = c.Cycles
		*steps++
		if ev := c.execInst(pc, in); ev != EvNone {
			return ev
		}
	}
	return EvNone
}
