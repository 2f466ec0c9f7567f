package kernel

// Syscall-policy enforcement: two composable layers checked on the
// kernel's dispatch path (DESIGN.md §6).
//
// Privilege regions restrict WHERE a syscall may be issued from: each
// task carries a set of code ranges, and the instruction pointer of the
// SYSCALL instruction must fall inside one of them. The set is built
// from the loaded image's executable segments plus guest additions via
// prctl(PR_SET_SYSCALL_PRIVILEGE, PR_PRIVILEGE_ADD), and seals — becomes
// immutable — either explicitly (PR_PRIVILEGE_SEAL) or lazily at the
// first syscall that is not the policy prctl itself. Sealing snapshots
// the executable mappings that exist at that moment, so interposition
// trampolines and stubs installed at attach time are privileged while a
// page the guest later makes executable (a JIT spray) is not.
//
// SFIP restricts WHICH syscall may follow which: a coarse-grained
// transition automaton over a tracked alphabet of syscall numbers,
// advanced on every dispatched call. The alphabet is explicit because
// the mechanisms differ in which app syscalls they route through the
// guest dispatch path (lazypoline services rt_sigaction from its Go
// payload via Kernel.Syscall, which is host-synthesised and exempt);
// numbers outside the alphabet never advance the automaton, which is
// what keeps its state — and therefore the kill point of a violating
// guest — identical across all nine mechanisms.
//
// Both checkpoints skip host-synthesised syscalls (Kernel.Syscall):
// mechanism-internal activity is trusted infrastructure, and exempting
// it is also what makes a benign guest's policy verdicts
// mechanism-invariant. A violation kills the whole thread group with
// 128+SIGSYS, records a mechanism-invariant reason in
// Task.PolicyViolation, and surfaces in telemetry as an abort on the
// policy-region / policy-sfip dispatch paths.

import (
	"fmt"

	"lazypoline/internal/isa"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
	"lazypoline/internal/policy"
)

// PolicyConfig selects which policy layers a kernel enforces. The zero
// value (or a nil pointer) disables both: New normalizes an all-off
// config to nil, so every per-syscall policy branch reduces to one nil
// or pointer check and policy-off runs are byte-identical to a kernel
// built without the layer.
type PolicyConfig struct {
	// Regions enables the privilege-region layer.
	Regions bool
	// SFIP, if non-nil, is the transition profile to ENFORCE.
	SFIP *policy.Profile
	// SFIPLearn, if non-nil, is a profile to populate instead of
	// enforcing: every observed transition is recorded via Observe and
	// nothing is killed. Takes precedence over SFIP. Learning charges
	// the same PolicySFIPCheck cost as enforcement, so a learn run's
	// schedule is cycle-identical to the enforce run it feeds.
	SFIPLearn *policy.Profile
}

// normalize maps an all-off config to nil (see PolicyConfig doc).
func (p *PolicyConfig) normalize() *PolicyConfig {
	if p == nil || (!p.Regions && p.SFIP == nil && p.SFIPLearn == nil) {
		return nil
	}
	return p
}

// policyStats backs the policy.* telemetry counters (kernel/telemetry.go).
type policyStats struct {
	regionChecks     uint64
	regionSeals      uint64
	regionViolations uint64
	sfipChecks       uint64
	sfipViolations   uint64
}

// initTaskPolicy sets up a new task's policy state. Called from newTask;
// clone and execve then adjust inheritance (sys_proc.go).
func (k *Kernel) initTaskPolicy(t *Task) {
	t.sfipLast = policy.Start
	if k.policy != nil && k.policy.Regions {
		t.policyRegions = policy.NewRegionSet()
	}
}

// policyRegisterImage pre-registers a loaded image's executable segments
// as privileged, so a guest that never touches the prctl gets the
// natural policy "syscalls come from the program text".
func (k *Kernel) policyRegisterImage(t *Task, img *loader.Image) {
	if t.policyRegions == nil || t.policyRegions.Sealed() {
		return
	}
	for _, r := range img.ExecRanges() {
		t.policyRegions.Add(r.Addr, r.Length) //nolint:errcheck // unsealed by the guard above
	}
}

// sealRegions snapshots the task's currently-executable mappings into
// the region set and freezes it.
func (k *Kernel) sealRegions(t *Task) {
	for _, r := range t.AS.Regions() {
		if r.Prot&mem.ProtExec != 0 {
			t.policyRegions.Add(r.Addr, r.Length) //nolint:errcheck // only called unsealed
		}
	}
	t.policyRegions.Seal()
	k.pstats.regionSeals++
}

// isPolicyPrctl reports whether the in-flight syscall (raw register
// state, read before any mechanism processing) is the policy prctl.
// The configuration call itself must not trigger the lazy seal — the
// guest needs a window to add ranges — and must not be checked against
// the (still unsealed) set.
func isPolicyPrctl(t *Task) bool {
	return int64(t.CPU.Regs[isa.RAX]) == SysPrctl &&
		t.CPU.Regs[isa.RDI] == PrSetSyscallPrivilege
}

// policyCheckRegion is the privilege-region checkpoint at the very top
// of syscallEntry — before the ptrace stop, so the ORIGINAL rogue
// SYSCALL is caught at its own address under every mechanism, before
// any of them redirects or re-issues it. Returns true if the task was
// killed (the caller must return without dispatching).
func (k *Kernel) policyCheckRegion(t *Task, insnAddr uint64) bool {
	rs := t.policyRegions
	if !rs.Sealed() {
		if isPolicyPrctl(t) {
			return false // configuration window: exempt, and seals nothing
		}
		k.sealRegions(t)
	}
	t.CPU.Cycles += k.Costs.PolicyRegionCheck
	k.pstats.regionChecks++
	if rs.Contains(insnAddr) {
		return false
	}
	nr := int64(t.CPU.Regs[isa.RAX])
	k.policyKill(t, PathPolicyRegion, nr, fmt.Sprintf(
		"policy: %s issued from unprivileged address %#x", SyscallName(nr), insnAddr))
	return true
}

// policyAdvanceSFIP is the SFIP checkpoint, placed just before the
// dispatch table: the call has passed every interception layer and is
// definitely about to execute. Returns true if the task was killed.
// rt_sigreturn is exempt — signal delivery is asynchronous kernel
// machinery, and the SIGSYS-based mechanisms sigreturn at points the
// SYSCALL-rewriting ones never see.
func (k *Kernel) policyAdvanceSFIP(t *Task, nr int64) bool {
	p, learn := k.policy.SFIP, false
	if k.policy.SFIPLearn != nil {
		p, learn = k.policy.SFIPLearn, true
	}
	if p == nil || nr == SysRtSigreturn {
		return false
	}
	// Charged whether or not nr is tracked, and identically in learn
	// and enforce mode: the checkpoint's cost must not depend on the
	// profile's contents.
	t.CPU.Cycles += k.Costs.PolicySFIPCheck
	k.pstats.sfipChecks++
	if !p.Tracks(nr) {
		return false
	}
	if learn {
		p.Observe(t.sfipLast, nr)
	} else if !p.Allowed(t.sfipLast, nr) {
		k.policyKill(t, PathPolicySFIP, nr, fmt.Sprintf(
			"policy: transition %s -> %s not in profile",
			sfipStateName(t.sfipLast), SyscallName(nr)))
		return true
	}
	t.sfipLast = nr
	return false
}

func sfipStateName(state int64) string {
	if state == policy.Start {
		return "start"
	}
	return SyscallName(state)
}

// policyKill terminates the thread group for a policy violation: a
// distinguishable SIGSYS-style exit, an abort on the policy dispatch
// path, and a mechanism-invariant reason on the task.
func (k *Kernel) policyKill(t *Task, path DispatchPath, nr int64, reason string) {
	t.PolicyViolation = reason
	if path == PathPolicyRegion {
		k.pstats.regionViolations++
	} else {
		k.pstats.sfipViolations++
	}
	k.telAbort(t, path, nr)
	k.traceFlightDump("policy:" + reason)
	k.exitGroup(t, 128+SIGSYS)
}

// sysPrivilege implements prctl(PR_SET_SYSCALL_PRIVILEGE, op, addr, len).
// -EINVAL when the region layer is off (matching prctl's contract for
// unknown options), -EPERM once the set is sealed.
func (k *Kernel) sysPrivilege(t *Task, args [6]uint64) sysResult {
	if t.policyRegions == nil {
		return sysErr(EINVAL)
	}
	switch args[1] {
	case PrPrivilegeAdd:
		if err := t.policyRegions.Add(args[2], args[3]); err != nil {
			return sysErr(EPERM)
		}
		return sysRet(0)
	case PrPrivilegeSeal:
		if !t.policyRegions.Sealed() {
			k.sealRegions(t)
		}
		return sysRet(0)
	default:
		return sysErr(EINVAL)
	}
}
