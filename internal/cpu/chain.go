package cpu

// Block chaining (DESIGN.md §3): once superblock execution retires a
// block's final instruction, the next block the guest enters is recorded
// in one of two successor slots on the finished block. On later visits
// the chained loop in runChained follows the slot directly — one pointer
// load plus a revalidation — instead of re-entering the cachedInst map
// lookup. Links are pure shortcuts: every use re-checks the successor's
// entry pc against the live RIP and its page generations via the
// mutation counter, so a stale or wrong link can slow
// execution down but never change it.

// Successor slot assignment. Slot 0 is reserved for the fall-through /
// not-taken successor (its entry equals the predecessor's end pc) and is
// effectively immutable once set. Slot 1 is a monomorphic inline cache
// for everything else — taken branches, calls, returns, indirect jumps —
// and is overwritten whenever the observed target changes.
const (
	chainSlotFallthrough = 0
	chainSlotBranch      = 1
)

// ChainStats counts block-chaining activity.
type ChainStats struct {
	// Links counts successor-slot writes (including monomorphic slot-1
	// replacements).
	Links uint64
	// Unlinks counts successor slots cleared because their block was
	// invalidated.
	Unlinks uint64
	// Transitions counts block→block transfers executed through a chain
	// link, i.e. map lookups avoided.
	Transitions uint64
}

// ChainStats returns a snapshot of the chaining counters; zero on a
// reference CPU.
func (c *CPU) ChainStats() ChainStats {
	if c.cache == nil {
		return ChainStats{}
	}
	return c.cache.cstats
}

// link records that control flowed from the end of from into to,
// choosing the slot by whether the transfer was a fall-through. Dropped
// blocks never participate: a link to or from one would resurrect a
// block that already left the map. A slot whose block was dropped since
// is replaced here, when the dispatcher resolves the transfer it could
// not follow.
func (dc *decodeCache) link(from, to *cachedBlock) {
	if from.dropped || to.dropped {
		return
	}
	slot := chainSlotBranch
	if to.entry == from.end {
		slot = chainSlotFallthrough
	}
	if from.succ[slot] == to {
		return
	}
	from.succ[slot] = to
	dc.cstats.Links++
}

// unlink clears b's successor slots. drop calls it exactly once per
// invalidated block, before deleting it from the map; a flush marks its
// blocks dropped and leaves their slots, since nothing reaches them
// again. Links into b are left in place: runChained refuses a dropped
// successor and the dispatcher relinks its predecessor.
func (dc *decodeCache) unlink(b *cachedBlock) {
	for slot, s := range b.succ {
		if s != nil {
			b.succ[slot] = nil
			dc.cstats.Unlinks++
		}
	}
}

// chainSucc returns the successor block chained for a transfer to rip,
// or nil if neither slot matches. Entry comparison is the first of the
// two validation layers; the caller still revalidates generations.
func (b *cachedBlock) chainSucc(rip uint64) *cachedBlock {
	if s := b.succ[chainSlotFallthrough]; s != nil && s.entry == rip {
		return s
	}
	if s := b.succ[chainSlotBranch]; s != nil && s.entry == rip {
		return s
	}
	return nil
}

// runChained is the superblock execution core: it retires instructions
// from the current cached block and follows successor links block→block
// without returning to the caller's Step-based dispatch. It returns (event, done); done=false means the
// caller should fall back to one dispatched Step (miss, invalidation,
// un-chained transfer) and re-enter if budget remains.
//
// Contract with StepBlock: *steps counts instructions retired this call,
// *pre must hold c.Cycles as of immediately before the most recently
// executed instruction — the kernel replays it into its quantum clock so
// an event raised by a batched instruction is timed identically to
// unbatched execution.
func (c *CPU) runChained(max uint64, steps *uint64, pre *uint64) (Event, bool) {
	dc := c.cache
	b := dc.cur
	if b == nil || dc.as != c.AS {
		return EvNone, false
	}
	mut := dc.as.CodeMutations()
	entered := *steps
	for {
		// Straight-line section: retire the rest of b from curIdx.
		for dc.curIdx < len(b.pcs) {
			if *steps >= max {
				if *steps > entered {
					c.SuperblockRuns++
				}
				return EvNone, true
			}
			if b.mut != mut {
				// Another CPU sharing this address space mutated code, or we
				// just did (stores bump the counter only on exec-page writes).
				if m, ok := dc.as.ValidatePages(b.pages[:b.npages]); ok {
					b.mut = m
					mut = m
				} else {
					dc.drop(b)
					if *steps > entered {
						c.SuperblockRuns++
					}
					return EvNone, false
				}
			}
			pc := b.pcs[dc.curIdx]
			if pc != c.RIP {
				// The previous instruction jumped; leave the straight line.
				break
			}
			if int32(dc.curIdx) == b.run.at {
				// A stack run cannot write code, so mut stays current.
				if end := dc.curIdx + int(b.run.n); c.runStack(b.pcs[dc.curIdx:end], b.insts[dc.curIdx:end], max, steps, pre) {
					dc.curIdx = end
					continue
				}
			}
			in := &b.insts[dc.curIdx]
			dc.curIdx++
			dc.stats.Hits++
			*pre = c.Cycles
			ev := c.execInst(pc, in)
			*steps++
			c.SuperblockInsts++
			if ev != EvNone {
				c.SuperblockRuns++
				return ev, true
			}
			mut = dc.as.CodeMutations()
		}
		if dc.curIdx < len(b.pcs) {
			// Left the straight line early (taken branch with no chance to
			// chain from here — the block isn't finished): let the
			// dispatcher look the target up and plant the link.
			break
		}
		// b finished. Try the chained successor for the live RIP.
		next := b.chainSucc(c.RIP)
		if next == nil {
			break
		}
		if next.dropped {
			// Dropped since b linked to it: the dispatcher finds or
			// builds the block at RIP and link replaces the slot.
			break
		}
		if next.mut != mut {
			if m, ok := dc.as.ValidatePages(next.pages[:next.npages]); ok {
				next.mut = m
			} else {
				dc.drop(next)
				break
			}
		}
		dc.cstats.Transitions++
		dc.cur, dc.curIdx = next, 0
		b = next
		// Fused idiom handlers at the block head. They bail to normal
		// chained execution when preconditions fail, leaving (cur, curIdx)
		// at the exact resume position.
		if c.Hook == nil {
			if ev, done := c.runSpecialized(b, max, steps, pre); done {
				if *steps > entered {
					c.SuperblockRuns++
				}
				return ev, true
			}
			b = dc.cur
			if b == nil || b.dropped {
				if *steps > entered {
					c.SuperblockRuns++
				}
				return EvNone, false
			}
			mut = dc.as.CodeMutations()
		}
	}
	if *steps > entered {
		c.SuperblockRuns++
	}
	return EvNone, false
}
