package core

import (
	"fmt"

	"lazypoline/internal/interpose"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
	"lazypoline/internal/telemetry"
)

// slowPath is the SIGSYS payload — the heart of the lazy design. It runs
// inside the SIGSYS handler context, with the saved application context
// sitting in the in-guest ucontext the kernel built (Figure 2, "Before
// Rewriting").
func (rt *Runtime) slowPath(hc *kernel.HcallCtx) error {
	t := hc.Task
	ucAddr, sig, ok := t.CurrentSigFrame()
	if !ok || sig != kernel.SIGSYS {
		return fmt.Errorf("lazypoline: slow path outside SIGSYS (sig %d)", sig)
	}

	rt.Stats.SlowPathHits++

	// Close the signal window before touching the selector: from the flip
	// below until the stub's rt_sigreturn, syscalls dispatch uninterposed
	// and the site bytes may be mid-patch. An application signal delivered
	// inside that window would run its handler before the fast path for
	// this site exists — and a syscall in that handler would re-enter the
	// rewrite path on top of a half-finished rewrite. Blocking every
	// catchable signal for the rest of the SIGSYS frame closes the window;
	// the stub's sigreturn restores the application mask from the saved
	// ucontext, so a pending signal delivers (interposed) right after.
	t.SigMask = ^uint64(0)

	// The selector goes to ALLOW first: everything the slow path itself
	// does (mprotect syscalls, the final sigreturn) must dispatch.
	if err := t.WriteForce(t.CPU.GSBase+interpose.GSSelector,
		[]byte{kernel.SyscallDispatchFilterAllow}); err != nil {
		return err
	}

	// The saved RIP points just past the trapping syscall instruction.
	savedRIP, err := t.ReadU64(ucAddr + kernel.UCRip)
	if err != nil {
		return err
	}
	site := savedRIP - isa.SyscallLen

	// Lazily install the fast path for this site (Figure 2 transition).
	// The telemetry timeline brackets the rewrite window — the span in
	// which the site bytes are mid-patch and signals are masked.
	rewriteStart := t.CPU.Cycles
	if err := rt.rewriteSiteLocked(t, site); err != nil {
		return err
	}
	if tel := rt.K.Telemetry(); tel != nil && tel.Timeline != nil {
		tel.Timeline.Span(telemetry.PIDMachine, t.ID, "rewrite", "rewrite",
			rewriteStart, t.CPU.Cycles-rewriteStart)
	}

	// Interpose this first execution too: resume at the generic entry
	// point, after pushing the return address a real `call rax` would
	// have pushed. The saved RAX still holds the syscall number, exactly
	// what the entry stub expects.
	savedRSP, err := t.ReadU64(ucAddr + kernel.UCGRegs + 8*uint64(isa.RSP))
	if err != nil {
		return err
	}
	savedRSP -= 8
	if err := t.WriteU64(savedRSP, savedRIP); err != nil {
		return err
	}
	if err := t.WriteU64(ucAddr+kernel.UCGRegs+8*uint64(isa.RSP), savedRSP); err != nil {
		return err
	}
	return t.WriteU64(ucAddr+kernel.UCRip, rt.entryAddr)
}

// rewriteSiteLocked takes the in-guest rewrite spinlock, then rewrites.
// The lock prevents the §IV-A(b) race: "one thread revokes write
// permissions while another thread is busy rewriting". The lock word
// lives in guest memory and is manipulated with (modelled) atomic
// exchanges so the locking cost is charged to the guest.
func (rt *Runtime) rewriteSiteLocked(t *kernel.Task, site uint64) error {
	lockAddr := uint64(RuntimeDataBase + spinlockOff)
	for {
		old, err := t.ReadU64(lockAddr)
		if err != nil {
			return err
		}
		t.CPU.Cycles += 2 // xchg
		if old == 0 {
			if err := t.WriteU64(lockAddr, 1); err != nil {
				return err
			}
			break
		}
		// Contended: spin. (The simulator serialises tasks, so a held
		// lock here means a bug rather than contention.)
		return fmt.Errorf("lazypoline: rewrite lock held")
	}
	rerr := rt.rewriteSite(t, site)
	if err := t.WriteU64(lockAddr, 0); err != nil {
		return err
	}
	t.CPU.Cycles += 2 // unlock store
	return rerr
}

// rewriteSite patches one verified syscall instruction to CALL RAX via
// the mprotect RW → write → mprotect RX sequence. The mprotects are real
// guest syscalls (they pay the SUD-enabled kernel entry tax like
// everything else). Already-rewritten sites are fine (idempotent).
func (rt *Runtime) rewriteSite(t *kernel.Task, site uint64) error {
	var cur [2]byte
	if err := t.ReadForce(site, cur[:]); err != nil {
		return err
	}
	if !isa.IsSyscallBytes(cur[:]) {
		patch := isa.CallRaxBytes()
		if cur[0] == patch[0] && cur[1] == patch[1] {
			return nil // raced/already rewritten — nothing to do
		}
		return fmt.Errorf("lazypoline: site %#x is not a syscall insn (% x)", site, cur)
	}

	page := site &^ (mem.PageSize - 1)
	length := uint64(mem.PageSize)
	if site+isa.SyscallLen > page+mem.PageSize {
		length = 2 * mem.PageSize // instruction straddles a page boundary
	}

	// JIT pages are often already writable (RWX); only flip protections
	// when the page is actually write-protected, and restore the
	// original protection afterwards.
	orig, ok := t.AS.ProtAt(site)
	if !ok {
		return fmt.Errorf("lazypoline: site %#x unmapped", site)
	}
	needFlip := orig&mem.ProtWrite == 0
	if needFlip {
		if ret := rt.K.Syscall(t, kernel.SysMprotect, [6]uint64{page, length, kernel.ProtReadBit | kernel.ProtWriteBit}); ret != 0 {
			return fmt.Errorf("lazypoline: mprotect RW: errno %d", -ret)
		}
	}
	patch := isa.CallRaxBytes()
	if err := t.WriteAt(site, patch[:]); err != nil {
		return err
	}
	if needFlip {
		if ret := rt.K.Syscall(t, kernel.SysMprotect, [6]uint64{page, length, protBits(orig)}); ret != 0 {
			return fmt.Errorf("lazypoline: mprotect restore: errno %d", -ret)
		}
	}
	rt.Stats.Rewrites++
	rt.Stats.Sites = append(rt.Stats.Sites, site)
	return nil
}
