package kernel

import (
	"lazypoline/internal/bpf"
	"lazypoline/internal/isa"
)

// resultKind classifies a syscall implementation's outcome.
type resultKind uint8

const (
	// resNormal: write ret into RAX and return to user space.
	resNormal resultKind = iota + 1
	// resNoReturn: the context was replaced (sigreturn, execve) or the
	// task died; do not touch RAX.
	resNoReturn
	// resBlocked: park the task and retry the syscall when its wait
	// (t.blocked, set by Task.block) is ready.
	resBlocked
)

// sysResult is a syscall implementation's outcome.
type sysResult struct {
	ret  int64
	kind resultKind
}

func sysRet(v int64) sysResult     { return sysResult{ret: v, kind: resNormal} }
func sysErr(errno int64) sysResult { return sysResult{ret: -errno, kind: resNormal} }
func sysNoReturn() sysResult       { return sysResult{kind: resNoReturn} }

// block parks t's syscall on wait w; finishSyscall marks t blocked and
// records the call to retry.
func (t *Task) block(w blockedState) sysResult {
	t.blocked = w
	return sysResult{kind: resBlocked}
}

// syscallEntry is the kernel's syscall entry path, mirroring the paper's
// Figure 1. Order of checks: ptrace, then seccomp filters, then Syscall
// User Dispatch, then the dispatch table. Every interception mechanism
// charges its costs here, which is what the microbenchmark measures.
func (k *Kernel) syscallEntry(t *Task) {
	c := &k.Costs
	insnAddr := t.CPU.RIP - isa.SyscallLen
	t.telBegin(insnAddr)
	t.CPU.Cycles += c.SyscallEntry

	// Privilege-region policy checkpoint — before the ptrace stop, so
	// the original SYSCALL is judged at its own address under every
	// mechanism. Host-synthesised calls are trusted infrastructure.
	if t.policyRegions != nil && !t.hostSyscall {
		if k.policyCheckRegion(t, insnAddr) {
			return
		}
	}

	// The mere presence of any interception interface slows down the
	// entry path for ALL syscalls — the paper's "enabling SUD" overhead
	// (Table II row "baseline with SUD enabled").
	intercepted := t.tracer != nil || len(t.Seccomp) > 0 || t.SUD.Enabled
	if intercepted {
		t.CPU.Cycles += c.InterceptCheck
	}

	// ptrace syscall-enter stop: schedule the tracer (context switch
	// there and back), let it inspect/modify, then continue.
	if t.tracer != nil {
		t.CPU.Cycles += 2 * c.ContextSwitch
		if t.tracer.OnEnter != nil {
			t.tracer.OnEnter(&t.stop)
		}
		if !t.Alive() {
			return
		}
	}

	nr := int64(t.CPU.Regs[isa.RAX])
	args := t.SyscallArgs()
	t.telNr = nr

	// seccomp: run every installed filter; the most restrictive action
	// wins (Linux semantics). Each executed BPF instruction is charged.
	if len(t.Seccomp) > 0 {
		action := k.runSeccomp(t, nr, args, insnAddr)
		switch action & bpf.RetActionMask {
		case bpf.RetAllow, bpf.RetLog:
			// continue
		case bpf.RetErrno:
			k.finishSyscall(t, nr, args, sysErr(int64(action&bpf.RetDataMask)))
			return
		case bpf.RetTrap, bpf.RetUserNotif:
			// Abort the syscall and force-deliver SIGSYS with SYS_SECCOMP.
			// RET_USER_NOTIF is modelled the same way: handling is
			// deferred to user space (the paper's "seccomp-user"). The
			// registers are left untouched (RAX still holds the number),
			// as with SUD, so user-space handlers can reconstruct the
			// call from the saved context.
			k.exitStop(t)
			k.telAbort(t, PathSeccompNotify, nr)
			k.postSignal(t, pendingSignal{
				sig: SIGSYS, code: SysSeccompCode, nr: nr, callAddr: insnAddr, force: true,
			})
			return
		case bpf.RetTrace:
			// No tracer protocol beyond our Tracer hooks; treat as allow.
		default: // RetKillThread / RetKillProcess
			// A seccomp kill is an abort like any other: the open
			// telemetry measurement must close on the seccomp path, not
			// leak into the next task's first syscall.
			k.telAbort(t, PathSeccomp, nr)
			if action&bpf.RetActionMask == bpf.RetKillProcess {
				k.exitGroup(t, 128+SIGSYS)
			} else {
				k.exitTask(t, 128+SIGSYS)
			}
			return
		}
	}

	// Syscall User Dispatch. Syscalls from the always-allowed code range
	// bypass the selector check entirely; everything else costs a
	// user-memory selector read.
	if t.SUD.Enabled {
		inRange := t.SUD.RangeLen > 0 &&
			insnAddr >= t.SUD.RangeLo && insnAddr < t.SUD.RangeLo+t.SUD.RangeLen
		if inRange {
			t.telRefinePath(PathSUDRange)
		}
		if !inRange {
			t.CPU.Cycles += c.SUDSelectorRead
			var sel [1]byte
			if err := t.ReadForce(t.SUD.SelectorAddr, sel[:]); err != nil {
				k.exitGroup(t, 128+SIGSEGV)
				return
			}
			switch sel[0] {
			case SyscallDispatchFilterAllow:
				t.telRefinePath(PathSUDAllow)
			case SyscallDispatchFilterBlock:
				// Abort the syscall, deliver SIGSYS/SYS_USER_DISPATCH.
				k.exitStop(t)
				k.telAbort(t, PathSigsys, nr)
				k.postSignal(t, pendingSignal{
					sig: SIGSYS, code: SysUserDispatch, nr: nr, callAddr: insnAddr, force: true,
				})
				return
			default:
				// An invalid selector value kills the task (Linux does
				// the same via SIGSYS).
				k.exitGroup(t, 128+SIGSYS)
				return
			}
		}
	}

	// SFIP policy checkpoint — the call has cleared every interception
	// layer and is about to execute, the one point all mechanisms share.
	if k.policy != nil && !t.hostSyscall {
		if k.policyAdvanceSFIP(t, nr) {
			return
		}
	}

	if k.OnDispatch != nil {
		k.OnDispatch(t, nr, args)
	}
	// Chaos errno injection sits below every interception layer: the
	// mechanisms have all observed the call, the ground-truth trace has
	// recorded it, and only then may the "kernel" fail it with a
	// retryable errno — the same view a real kernel would give.
	if res, injected := k.chaosSyscall(t, nr); injected {
		k.finishSyscall(t, nr, args, res)
		return
	}
	k.finishSyscall(t, nr, args, k.dispatch(t, nr, args))
}

// runSeccomp evaluates all filters, charging per-instruction costs, and
// returns the most restrictive action.
func (k *Kernel) runSeccomp(t *Task, nr int64, args [6]uint64, insnAddr uint64) uint32 {
	data := (&bpf.SeccompData{
		Nr:                 int32(nr),
		Arch:               bpf.AuditArch,
		InstructionPointer: insnAddr,
		Args:               args,
	}).Marshal()
	best := uint32(bpf.RetAllow)
	for _, f := range t.Seccomp {
		res, steps, err := f.Run(data)
		t.CPU.Cycles += uint64(steps) * k.Costs.BPFInsn
		if err != nil {
			// A filter that faults at runtime (bad jump, division by
			// zero) acts as RET_KILL_PROCESS, but does NOT short-circuit
			// the walk: Linux runs every attached filter regardless, so
			// the remaining programs' BPF cycles are still charged and
			// the entry path's cost stays independent of filter order.
			res = bpf.RetKillProcess
		}
		res = knownAction(res)
		if actionPrecedence(res) < actionPrecedence(best) {
			best = res
		}
	}
	return best
}

// knownAction normalizes an action word the kernel does not recognise
// to RET_KILL_PROCESS — the most restrictive interpretation, matching
// Linux (seccomp(2): "an unknown action value ... is treated as
// SECCOMP_RET_KILL_PROCESS"). Note RET_KILL_THREAD is the all-zero
// action, so a masked-to-zero word is a known kill-thread, not unknown.
func knownAction(action uint32) uint32 {
	switch action & bpf.RetActionMask {
	case bpf.RetKillProcess, bpf.RetKillThread, bpf.RetTrap, bpf.RetErrno,
		bpf.RetUserNotif, bpf.RetTrace, bpf.RetLog, bpf.RetAllow:
		return action
	}
	return bpf.RetKillProcess
}

// actionPrecedence orders seccomp actions from most to least restrictive.
func actionPrecedence(action uint32) int {
	switch action & bpf.RetActionMask {
	case bpf.RetKillProcess:
		return 0
	case bpf.RetKillThread:
		return 1
	case bpf.RetTrap:
		return 2
	case bpf.RetErrno:
		return 3
	case bpf.RetUserNotif:
		return 4
	case bpf.RetTrace:
		return 5
	case bpf.RetLog:
		return 6
	case bpf.RetAllow:
		return 7
	}
	// Unknown action words rank as kill-process: allow-by-default would
	// turn a filter author's typo into a policy bypass.
	return 0
}

// finishSyscall completes a dispatched syscall according to its result.
func (k *Kernel) finishSyscall(t *Task, nr int64, args [6]uint64, res sysResult) {
	switch res.kind {
	case resNormal:
		t.CPU.Regs[isa.RAX] = uint64(res.ret)
		t.CPU.Cycles += k.Costs.SyscallExit
		k.exitStop(t)
		k.telSyscallEnd(t, nr)
	case resNoReturn:
		// Context replaced or task gone; nothing to write back.
		k.telSyscallEnd(t, nr)
	case resBlocked:
		t.state = TaskBlocked
		t.blocked.nr, t.blocked.args = nr, args
	}
}

// exitStop reports the syscall-exit stop to t's tracer. Every call that
// got an enter stop and returns to the task gets one, a call seccomp or
// SUD aborted with SIGSYS included (Linux's syscall_exit_work); the
// tracer sees RAX as the task will.
func (k *Kernel) exitStop(t *Task) {
	if t.tracer != nil && t.Alive() {
		t.CPU.Cycles += 2 * k.Costs.ContextSwitch
		if t.tracer.OnExit != nil {
			t.tracer.OnExit(&t.stop)
		}
	}
}

// retryBlocked runs a parked task's syscall again once its wait is
// ready. A retried syscall is a fresh dispatch as far as the fault model
// is concerned: it consults the chaos engine again, exactly like the
// first attempt did on its way through syscallEntry. Skipping the
// injection point here would make any syscall that once blocked immune
// to faults for the rest of its life (TestChaosRetryInjection pins this
// contract).
func (k *Kernel) retryBlocked(t *Task) {
	nr, args := t.blocked.nr, t.blocked.args
	t.state = TaskRunnable
	t.blocked = blockedState{}
	if cres, injected := k.chaosSyscall(t, nr); injected {
		k.finishSyscall(t, nr, args, cres)
		return
	}
	k.finishSyscall(t, nr, args, k.dispatch(t, nr, args))
}

// Syscall runs a complete syscall on behalf of a task from host code (an
// interposer's Go payload). It goes through the full entry path — so a
// raw syscall made by an interposer still pays the intercept-check and
// selector-read costs, exactly as the paper measures — by synthesising
// the register state the stub would have had. The caller must ensure the
// syscall cannot block (interposer payloads execute blocking syscalls
// through real SYSCALL instructions in their stubs instead).
func (k *Kernel) Syscall(t *Task, nr int64, args [6]uint64) int64 {
	// Mark the call host-synthesised for the chaos engine: mechanism-
	// internal syscalls (lazypoline's rewrite mprotects) must not
	// advance or be hit by fault streams, or the schedules would
	// diverge between mechanisms. Save/restore supports nesting.
	savedHost := t.hostSyscall
	t.hostSyscall = true
	defer func() { t.hostSyscall = savedHost }()

	saved := t.CPU.Regs
	t.CPU.Regs[isa.RAX] = uint64(nr)
	t.CPU.Regs[isa.RDI] = args[0]
	t.CPU.Regs[isa.RSI] = args[1]
	t.CPU.Regs[isa.RDX] = args[2]
	t.CPU.Regs[isa.R10] = args[3]
	t.CPU.Regs[isa.R8] = args[4]
	t.CPU.Regs[isa.R9] = args[5]
	t.CPU.Cycles += k.Costs.Insn // the SYSCALL instruction itself
	k.syscallEntry(t)
	rax := t.CPU.Regs[isa.RAX]
	t.CPU.Regs = saved
	t.CPU.Regs[isa.RAX] = rax
	return int64(rax)
}
