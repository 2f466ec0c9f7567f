package kernel

import (
	"lazypoline/internal/chaos"
	"lazypoline/internal/netstack"
)

// This file is the kernel half of the deterministic fault-injection
// engine (internal/chaos). Every decision here must key on APPLICATION
// level events so that the fault schedule is identical under every
// interposition mechanism: a lazypoline rewrite mprotect, a SUD stub
// re-issue, or a ptrace stop must never advance a chaos stream. Two
// exemptions enforce that:
//
//   - t.hostSyscall: syscalls synthesised by interposer Go payloads via
//     Kernel.Syscall (mechanism-internal by construction);
//   - rt_sigreturn (and every other syscall whose row is not retryable):
//     mechanisms deliver different numbers of signals, so sigreturn
//     counts differ per mechanism.
//
// With those in place, the nth dispatch of an eligible syscall by a
// given task is the same application event under every mechanism, and
// the chaos-invariance suite can demand byte-identical outcomes.

// chaosStream builds the per-(task, syscall) stream id: each syscall
// number gets an independent stream per task, so e.g. injecting into
// reads can never shift the fault positions seen by writes.
func chaosStream(t *Task, nr int64) uint64 {
	return uint64(t.ID)<<16 | uint64(nr)&0xFFFF
}

// chaosSyscall decides whether to inject an errno instead of running
// the syscall. It runs after the interposition layers and the
// OnDispatch ground-truth hook, so every mechanism observes the
// injected failure identically. Returns (result, true) on injection.
func (k *Kernel) chaosSyscall(t *Task, nr int64) (sysResult, bool) {
	if k.chaos == nil || t.hostSyscall || uint64(nr) > MaxSyscallNr || !syscallTable[nr].retryable {
		return sysResult{}, false
	}
	id := chaosStream(t, nr)
	if !k.chaos.Fire(chaos.SiteSyscallErrno, id) {
		return sysResult{}, false
	}
	// Nanosleep has no EAGAIN semantics; everything else alternates
	// deterministically between the two retryable errnos.
	if nr == SysNanosleep || k.chaos.Pick(chaos.SiteSyscallErrno, id, 2) == 0 {
		return sysErr(EINTR), true
	}
	return sysErr(EAGAIN), true
}

// chaosFaults adapts the chaos engine to netstack's FaultPlan. Each
// connection id owns independent drop/delay/reset streams, keyed by
// Connect order — an application-level event sequence.
type chaosFaults struct{ e *chaos.Engine }

func (c chaosFaults) Drop(id uint64) bool  { return c.e.Fire(chaos.SiteNetDrop, id) }
func (c chaosFaults) Delay(id uint64) bool { return c.e.Fire(chaos.SiteNetDelay, id) }
func (c chaosFaults) Reset(id uint64) bool { return c.e.Fire(chaos.SiteNetReset, id) }

var _ netstack.FaultPlan = chaosFaults{}

// chaosShortIO truncates a transfer length to model a short read or
// write (site picks which stream). The result stays >= 1 byte so the
// operation still makes progress — livelock-free by construction.
func (k *Kernel) chaosShortIO(t *Task, site chaos.Site, count uint64) uint64 {
	if k.chaos == nil || t.hostSyscall || count <= 1 {
		return count
	}
	if !k.chaos.Fire(site, uint64(t.ID)) {
		return count
	}
	return 1 + k.chaos.Pick(site, uint64(t.ID), count-1)
}
