package mem

import "fmt"

// Memory protection keys (MPK), the commodity hardware primitive the
// paper's §VI proposes for isolating the interposer's sensitive state —
// most importantly the SUD selector byte — from attacker-controlled
// application code.
//
// Pages carry a 4-bit protection key; the (per-hardware-thread) PKRU
// register holds two bits per key: access-disable and write-disable.
// Instruction fetch is never blocked by MPK, and kernel-privileged
// accesses (the Force variants) bypass it, both as on x86.

// NumPkeys is the number of protection keys (x86 has 16).
const NumPkeys = 16

// PKRU bit helpers.
const (
	// PkeyAccessDisable yields the access-disable bit for a key.
	pkeyADShift = 0
	// PkeyWriteDisable yields the write-disable bit for a key.
	pkeyWDShift = 1
)

// PkeyAccessDisableBit returns the PKRU bit that disables all access to
// pages tagged with key.
func PkeyAccessDisableBit(key uint8) uint32 { return 1 << (2*uint32(key) + pkeyADShift) }

// PkeyWriteDisableBit returns the PKRU bit that disables writes to pages
// tagged with key.
func PkeyWriteDisableBit(key uint8) uint32 { return 1 << (2*uint32(key) + pkeyWDShift) }

// SetPkey tags every page of [addr, addr+length) with a protection key
// (pkey_mprotect). Both bounds must be page-aligned and mapped.
func (as *AddressSpace) SetPkey(addr, length uint64, key uint8) error {
	if addr%PageSize != 0 || length == 0 || length%PageSize != 0 {
		return ErrBadRange
	}
	if key >= NumPkeys {
		return fmt.Errorf("%w: pkey %d", ErrBadRange, key)
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	first, n := addr>>PageShift, length>>PageShift
	for i := uint64(0); i < n; i++ {
		if _, ok := as.pages[first+i]; !ok {
			return fmt.Errorf("%w: page %#x not mapped", ErrBadRange, (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		pg := as.pages[first+i]
		pg.pkey = key
		// A pkey change alters what a cached access decision may permit, so
		// it must invalidate software-TLB handles the same way mprotect
		// does: by issuing a fresh generation.
		pg.gen.Store(as.nextGen())
	}
	return nil
}

// PkeyAt returns the protection key of the page containing addr.
func (as *AddressSpace) PkeyAt(addr uint64) (uint8, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	pg, ok := as.pages[addr>>PageShift]
	if !ok {
		return 0, false
	}
	return pg.pkey, true
}

// SetActivePKRU installs the PKRU value guest data accesses are checked
// against. The simulator schedules one task at a time, so the kernel
// loads the running task's PKRU here on every quantum (on hardware PKRU
// is per logical CPU). One atomic store: no page state changes.
func (as *AddressSpace) SetActivePKRU(v uint32) { as.activePKRU.Store(v) }

// ActivePKRU returns the currently installed PKRU value.
func (as *AddressSpace) ActivePKRU() uint32 { return as.activePKRU.Load() }

// PkeyAllows checks a guest data access against a PKRU value. Exported
// for the CPU's software-TLB hit path, which checks its own (per-task)
// PKRU register against the handle's cached pkey without taking the
// address-space lock.
func PkeyAllows(pkru uint32, key uint8, write bool) bool {
	return pkeyAllows(pkru, key, write)
}

// pkeyAllows checks a guest data access against the active PKRU.
// Key 0 is the default key and is never restricted (matching how our
// guests use it; x86 technically allows restricting key 0 too, which
// would instantly crash any program).
func pkeyAllows(pkru uint32, key uint8, write bool) bool {
	if key == 0 {
		return true
	}
	if pkru&PkeyAccessDisableBit(key) != 0 {
		return false
	}
	if write && pkru&PkeyWriteDisableBit(key) != 0 {
		return false
	}
	return true
}
