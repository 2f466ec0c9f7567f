package cpu

// Block chaining (DESIGN.md §3): once a block's final instruction
// retires, the block enter resolves next is recorded in one of two
// successor slots on the finished block. On later visits enter follows
// the slot directly — one pointer load plus a revalidation — instead of
// looking the entry up in the map. Links are pure shortcuts: every use
// re-checks the successor's entry pc against the live RIP and its page
// generations via the mutation counter, so a stale or wrong link can
// slow execution down but never change it.

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
// is replaced here, when enter resolves the transfer it could not
// follow.
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
// again. Links into b are left in place: enter refuses a dropped
// successor and relinks its predecessor.
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
