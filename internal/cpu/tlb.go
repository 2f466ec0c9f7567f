package cpu

import (
	"encoding/binary"

	"lazypoline/internal/mem"
)

// tlbSize is the number of direct-mapped D-TLB entries. 64 entries cover
// 256 KiB of working set — far more than any guest's hot loop touches —
// while keeping the index mask a single AND.
const tlbSize = 64

// TLBStats counts software D-TLB activity, exposed for tests and the
// telemetry layer. Pure observability: none of these affect
// timing or guest-visible behaviour.
type TLBStats struct {
	// Hits are data accesses served lock-free from a validated entry.
	Hits uint64
	// Misses are in-page data accesses that re-walked the page map
	// (empty slot, conflict eviction, or a stale generation).
	Misses uint64
	// Evictions counts valid entries displaced by a conflicting page.
	Evictions uint64
	// Flushes counts whole-TLB resets (address-space rebind).
	Flushes uint64
}

// tlbEntry is one direct-mapped slot: the page number tag plus the
// generation-validated handle aliasing the page's backing bytes.
type tlbEntry struct {
	pn uint64
	h  mem.PageHandle
}

// dtlb is the per-CPU software data-TLB. Like the decode cache it is
// private to its CPU (per-task); all cross-CPU coherence runs through
// the address space's per-page generation counters, so two CPUs sharing
// one address space (CLONE_VM) invalidate each other's stale entries on
// the next generation compare — and, because entries alias the single
// backing array, data written by one task is visible to the other even
// through a still-valid entry.
type dtlb struct {
	as      *mem.AddressSpace
	entries [tlbSize]tlbEntry
	stats   TLBStats
}

func newDTLB(as *mem.AddressSpace) *dtlb {
	return &dtlb{as: as}
}

// TLBStats returns a snapshot of the TLB counters; zero on a reference
// CPU.
func (c *CPU) TLBStats() TLBStats {
	if c.tlb == nil {
		return TLBStats{}
	}
	return c.tlb.stats
}

func (d *dtlb) reset(as *mem.AddressSpace) {
	d.as = as
	d.entries = [tlbSize]tlbEntry{}
	d.stats.Flushes++
}

// lookup returns a handle for an n-byte data access at addr that lies
// entirely within one page, or nil when the caller must take the locked
// slow path (a reference CPU, page-crossing access, unmapped page,
// insufficient protection, pkey denial, or a write to an executable
// page). The slow path re-derives any fault with its proper address and
// accounting, so lookup never needs to construct one.
//
// priv selects the kernel-privileged rules of AS.ReadForce/WriteForce:
// protection bits and protection keys are ignored, but a PROT_NONE page
// still faults. A store to an executable page stays on the locked path
// either way, so the generation and code-mutation counters advance, and
// so does a store to a page that aliases a shared frame, which the locked
// path privatizes first.
func (c *CPU) lookup(addr uint64, n int, write, priv bool) *mem.PageHandle {
	d := c.tlb
	if d == nil {
		return nil
	}
	if d.as != c.AS {
		// The CPU was rebound to a different address space (execve); every
		// entry aliases pages of the old one.
		d.reset(c.AS)
	}
	if int(addr&(mem.PageSize-1))+n > mem.PageSize {
		return nil
	}
	pn := addr >> mem.PageShift
	e := &d.entries[pn&(tlbSize-1)]
	hit := e.h.Data != nil && e.pn == pn && e.h.Valid()
	if !hit {
		// Fill: one read-locked walk, then zero-lock hits until the page's
		// generation changes.
		d.stats.Misses++
		if e.h.Data != nil && e.pn != pn {
			d.stats.Evictions++
		}
		h, ok := d.as.PageForAccess(pn)
		if !ok {
			return nil
		}
		e.pn, e.h = pn, h
	}
	switch {
	case priv:
		if e.h.Prot == mem.ProtNone || write && (e.h.Prot&mem.ProtExec != 0 || e.h.Shared) {
			return nil
		}
	case write:
		if !e.h.DirectWrite || !mem.PkeyAllows(c.PKRU, e.h.Pkey, true) {
			return nil
		}
	default:
		if e.h.Prot&mem.ProtRead == 0 || !mem.PkeyAllows(c.PKRU, e.h.Pkey, false) {
			return nil
		}
	}
	if hit {
		d.stats.Hits++
	}
	return &e.h
}

// The accessors below are the TLB-aware counterparts of the address
// space's ReadAt/WriteAt/ReadU64/WriteU64/ReadForce/WriteForce: the same
// bytes, errors, fault addresses and fault/code-mutation counts, but
// lock-free on a TLB hit and without a page-generation bump for a store
// to a non-executable page (see mem.PageHandle.DirectWrite). Guest loads
// and stores use them, and so does the kernel on behalf of the task
// (kernel.Task's accessors, DESIGN.md §19). Only the goroutine running
// the CPU's quantum may call them: the TLB is not synchronised.
//
// A span that crosses pages is served a page at a time from the TLB, up
// to the first page the TLB cannot serve; the rest of the span, from that
// page on, takes the locked path in one call. A fault is therefore raised
// and counted once, at the first inaccessible byte, the pages before it
// have been transferred, and a store touching executable pages advances
// the code-mutation counter once — as one locked call over the whole span
// would.

// spans transfers [addr, addr+len(p)) page by page through the TLB with
// copy(guest bytes, p) or its reverse, handing the rest of the span to
// the matching locked call at the first page the TLB refuses. (The
// locked calls are named, not passed in: a call through a func value
// would make every caller's buffer escape.)
func (c *CPU) spans(addr uint64, p []byte, write, priv bool) error {
	for len(p) > 0 {
		off := addr & (mem.PageSize - 1)
		n := min(len(p), int(mem.PageSize-off))
		h := c.lookup(addr, n, write, priv)
		if h == nil {
			switch {
			case write && priv:
				return c.AS.WriteForce(addr, p)
			case write:
				return c.AS.WriteAt(addr, p)
			case priv:
				return c.AS.ReadForce(addr, p)
			}
			return c.AS.ReadAt(addr, p)
		}
		if write {
			copy(h.Data[off:], p[:n])
		} else {
			copy(p[:n], h.Data[off:])
		}
		addr += uint64(n)
		p = p[n:]
	}
	return nil
}

// ReadAt reads len(p) bytes at addr, enforcing read permission.
func (c *CPU) ReadAt(addr uint64, p []byte) error {
	return c.spans(addr, p, false, false)
}

// WriteAt writes p at addr, enforcing write permission.
func (c *CPU) WriteAt(addr uint64, p []byte) error {
	return c.spans(addr, p, true, false)
}

// CheckRead reports what ReadAt of n bytes at addr would, without
// copying them: nil, or the fault, raised and counted as ReadAt would.
// The kernel checks a whole guest buffer with it before a transfer that
// must not start unless every byte can be read.
func (c *CPU) CheckRead(addr uint64, n int) error {
	for n > 0 {
		chunk := min(n, int(mem.PageSize-addr&(mem.PageSize-1)))
		if c.lookup(addr, chunk, false, false) == nil {
			return c.AS.CheckRead(addr, n)
		}
		addr += uint64(chunk)
		n -= chunk
	}
	return nil
}

// ReadU64 reads a little-endian uint64 with read permission.
func (c *CPU) ReadU64(addr uint64) (uint64, error) {
	if h := c.lookup(addr, 8, false, false); h != nil {
		off := addr & (mem.PageSize - 1)
		return binary.LittleEndian.Uint64(h.Data[off : off+8]), nil
	}
	return c.AS.ReadU64(addr)
}

// WriteU64 writes a little-endian uint64 with write permission.
func (c *CPU) WriteU64(addr, v uint64) error {
	if h := c.lookup(addr, 8, true, false); h != nil {
		off := addr & (mem.PageSize - 1)
		binary.LittleEndian.PutUint64(h.Data[off:off+8], v)
		return nil
	}
	return c.AS.WriteU64(addr, v)
}

// ReadForce reads ignoring protections (kernel-privileged read).
func (c *CPU) ReadForce(addr uint64, p []byte) error {
	return c.spans(addr, p, false, true)
}

// WriteForce writes ignoring protections (kernel-privileged write).
func (c *CPU) WriteForce(addr uint64, p []byte) error {
	return c.spans(addr, p, true, true)
}
