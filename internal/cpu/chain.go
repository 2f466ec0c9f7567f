package cpu

// Block chaining (DESIGN.md §11): once superblock execution retires a
// block's final instruction, the next block the guest enters is recorded
// in one of two successor slots on the finished block. On later visits
// the chained loop in runChained follows the slot directly — one pointer
// load plus a revalidation — instead of re-entering the cachedInst map
// lookup. Links are pure shortcuts: every use re-checks the successor's
// entry pc against the live RIP and its page generations via the
// lock-free mutation counter, so a stale or wrong link can slow
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
	// Unlinks counts links severed because either endpoint was dropped,
	// evicted, or a slot-1 target was replaced.
	Unlinks uint64
	// Transitions counts block→block transfers executed through a chain
	// link, i.e. map lookups avoided.
	Transitions uint64
}

// SetChaining enables or disables block chaining. Chaining rides on
// superblock execution; disabling superblocks or the decode cache makes
// this toggle inert (see ChainingEnabled).
func (c *CPU) SetChaining(on bool) { c.chaining = on }

// ChainingEnabled reports whether chained block→block execution is
// effective — the toggle is on AND the layers it depends on are live.
func (c *CPU) ChainingEnabled() bool {
	return c.chaining && c.SuperblocksEnabled()
}

// ChainStats returns a snapshot of the chaining counters, surviving
// decode-cache toggles the same way DecodeCacheStats does.
func (c *CPU) ChainStats() ChainStats {
	if c.cache == nil {
		return c.savedChainStats
	}
	return c.cache.cstats
}

// link records that control flowed from the end of from into to,
// choosing the slot by whether the transfer was a fall-through. Dropped
// blocks never participate: a link to or from one would resurrect a
// block that already left the map.
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
	if old := from.succ[slot]; old != nil {
		// Monomorphic slot-1 replacement: sever the old edge fully so
		// old.preds never holds a dangling predLink.
		removePred(old, from, slot)
		dc.cstats.Unlinks++
	}
	from.succ[slot] = to
	to.preds = append(to.preds, predLink{from: from, slot: slot})
	dc.cstats.Links++
}

// unlink severs every chain edge touching b — outgoing successor slots
// and incoming predecessor links — and invalidates every trace b is part
// of. Called exactly once per block removal (drop and evict both route
// here before deleting from the map).
func (dc *decodeCache) unlink(b *cachedBlock) {
	for slot, s := range b.succ {
		if s != nil {
			removePred(s, b, slot)
			b.succ[slot] = nil
			dc.cstats.Unlinks++
		}
	}
	for _, p := range b.preds {
		if p.from.succ[p.slot] == b {
			p.from.succ[p.slot] = nil
			dc.cstats.Unlinks++
		}
	}
	b.preds = nil
	if b.trace != nil {
		dc.invalidateTrace(b.trace)
	}
	for len(b.traces) > 0 {
		dc.invalidateTrace(b.traces[len(b.traces)-1])
	}
}

// removePred deletes the (from, slot) entry from b.preds. Order is not
// preserved; preds is an unordered set.
func removePred(b *cachedBlock, from *cachedBlock, slot int) {
	for i, p := range b.preds {
		if p.from == from && p.slot == slot {
			b.preds[i] = b.preds[len(b.preds)-1]
			b.preds = b.preds[:len(b.preds)-1]
			return
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
// from the current cached block and, when chaining is enabled, follows
// successor links block→block without returning to the caller's
// Step-based dispatch. It returns (event, done); done=false means the
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
			if dc.cur != b {
				// execInst invalidated the block mid-flight (guest SMC wrote
				// over its own straight line).
				if *steps > entered {
					c.SuperblockRuns++
				}
				return EvNone, false
			}
			mut = dc.as.CodeMutations()
		}
		if dc.curIdx < len(b.pcs) || !c.chaining {
			// Left the straight line early (taken branch with no chance to
			// chain from here — the block isn't finished), or chaining off:
			// let the dispatcher look the target up and plant the link.
			break
		}
		// b finished. Try the chained successor for the live RIP.
		next := b.chainSucc(c.RIP)
		if next == nil {
			break
		}
		if next.dropped {
			// A dangling link would have been severed by unlink; defensive.
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
		next.execCount++
		dc.cur, dc.curIdx = next, 0
		b = next
		// Hot-path specialization at the block head: promoted traces and
		// fused idiom handlers. Both bail to normal chained execution when
		// preconditions fail, leaving (cur, curIdx) at the exact resume
		// position.
		if c.traces && c.Hook == nil {
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
