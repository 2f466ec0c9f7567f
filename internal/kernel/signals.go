package kernel

import (
	"encoding/binary"

	"lazypoline/internal/chaos"
	"lazypoline/internal/cpu"
	"lazypoline/internal/isa"
)

// postSignal queues a signal on a task. Forced signals (SIGSYS from SUD
// or seccomp, SIGSEGV, SIGILL) kill the task outright if they are blocked
// or have no handler — force_sig semantics.
func (k *Kernel) postSignal(t *Task, ps pendingSignal) {
	if !t.Alive() {
		return
	}
	if ps.sig == SIGKILL {
		k.exitGroup(t, 128+SIGKILL)
		return
	}
	t.pending = append(t.pending, ps)
	if t.state != TaskBlocked {
		return
	}
	if ps.force {
		// Forced signal: always interrupts the wait; checkSignals then
		// delivers or kills.
		t.state = TaskRunnable
		t.blocked = blockedState{}
		return
	}
	// An ordinary signal interrupts a blocking syscall only if it will
	// actually do something — run a handler or terminate the task.
	// Masked and ignored signals leave the wait undisturbed (Linux
	// semantics). Whether the interrupted syscall restarts transparently
	// or fails with -EINTR is decided at delivery time from the
	// handler's SaRestart flag.
	if k.signalInterrupts(t, ps) {
		t.sigInterrupted = true
		t.state = TaskRunnable
		t.blocked = blockedState{}
	}
}

// signalInterrupts reports whether a freshly posted, non-forced signal
// should yank t out of a blocking syscall. The disposition cannot
// change between this check and delivery: only t itself could change
// its mask or handlers, and t does not run in between.
func (k *Kernel) signalInterrupts(t *Task, ps pendingSignal) bool {
	if t.SigMask&(1<<uint(ps.sig)) != 0 {
		return false
	}
	act := t.Sig.Get(ps.sig)
	if act.Handler == SigIgn {
		return false
	}
	if act.Handler == SigDfl {
		return !defaultIgnored(ps.sig) // default-terminate ends the wait
	}
	return true
}

// checkSignals delivers at most one deliverable pending signal.
// Discarded (ignored) signals do not count as the delivery: the scan
// restarts after removing them, so an ignored signal queued ahead of a
// handled one can never leave an interrupted syscall unresolved.
func (k *Kernel) checkSignals(t *Task) {
	for t.Alive() && len(t.pending) > 0 {
		discarded := false
	scan:
		for i, ps := range t.pending {
			blocked := t.SigMask&(1<<uint(ps.sig)) != 0
			act := t.Sig.Get(ps.sig)
			switch {
			case blocked && ps.force:
				// Forced signal while blocked: kill (Linux force_sig).
				k.exitGroup(t, 128+ps.sig)
				return
			case blocked:
				continue // stays pending
			case act.Handler == SigIgn:
				t.pending = append(t.pending[:i], t.pending[i+1:]...)
				discarded = true
				break scan
			case act.Handler == SigDfl:
				if defaultIgnored(ps.sig) {
					t.pending = append(t.pending[:i], t.pending[i+1:]...)
					discarded = true
					break scan
				}
				k.exitGroup(t, 128+ps.sig)
				return
			default:
				t.pending = append(t.pending[:i], t.pending[i+1:]...)
				k.resolveInterrupt(t, act)
				k.deliverSignal(t, ps, act)
				return
			}
		}
		if !discarded {
			return
		}
	}
}

// resolveInterrupt finalises a blocking syscall that a signal tore the
// task out of, just before the handler frame is built. With SaRestart
// the program counter is backed up onto the SYSCALL instruction — RAX
// still holds the number and the argument registers are intact, so the
// call re-executes after the handler returns (Linux's ERESTARTSYS
// fixup). The re-execution takes the full interception path again, so
// every mechanism observes the restart identically. Without SaRestart
// the syscall fails: the handler frame captures RAX = -EINTR as the
// post-handler return value.
func (k *Kernel) resolveInterrupt(t *Task, act SigAction) {
	if !t.sigInterrupted {
		return
	}
	t.sigInterrupted = false
	if act.Flags&SaRestart != 0 {
		// The syscall re-executes from scratch after the handler, opening
		// a fresh measurement; drop the interrupted one.
		t.telActive = false
		t.CPU.RIP -= isa.SyscallLen
	} else {
		ret := int64(-EINTR)
		t.CPU.Regs[isa.RAX] = uint64(ret)
		t.CPU.Cycles += k.Costs.SyscallExit
		k.telSyscallEnd(t, t.telNr)
	}
}

func defaultIgnored(sig int) bool {
	return sig == SIGCHLD
}

// deliverSignal builds the signal frame on the user stack and redirects
// the task into its handler:
//
//	rsp' = rsp - redzone - frame, 16-aligned
//	[rsp'] = return address -> vdso sigreturn stub
//	siginfo and ucontext written above it
//	rdi = sig, rsi = &siginfo, rdx = &ucontext
//
// The kernel records the frame so rt_sigreturn can restore — and so
// interposers that edit the in-memory ucontext (lazypoline's slow path
// setting REG_RIP) are honoured on return.
func (k *Kernel) deliverSignal(t *Task, ps pendingSignal, act SigAction) {
	// Signal delivery interrupts straight-line execution: charge any
	// half-filled NOP batch to the interrupted run before redirecting.
	t.CPU.FlushNopBatch()
	t.CPU.Cycles += k.Costs.SignalDeliver
	// Chaos delivery-timing perturbation: model a slow interrupt path.
	// Only cycles move — what gets delivered, and in what order, never
	// changes, so guest-visible state is untouched.
	if k.chaos.Fire(chaos.SiteSignalDelay, uint64(t.ID)) {
		t.CPU.Cycles += k.chaos.Pick(chaos.SiteSignalDelay, uint64(t.ID), k.Costs.SignalDeliver)
	}

	// The frame is one contiguous run of the stack — return address,
	// siginfo, ucontext, lowest address first — built here and stored once.
	const redZone = 128
	const siOff, ucOff = 8, 8 + SigInfoSize
	ucAddr := (t.CPU.Regs[isa.RSP] - redZone - UContextSize) &^ 15
	siAddr := ucAddr - SigInfoSize
	sp := siAddr - 8 // return address slot

	var frame [ucOff + UContextSize]byte
	binary.LittleEndian.PutUint64(frame[0:], VdsoBase+VdsoSigreturnOffset)
	si := frame[siOff:ucOff]
	binary.LittleEndian.PutUint64(si[SISigno:], uint64(ps.sig))
	binary.LittleEndian.PutUint64(si[SICode:], uint64(ps.code))
	binary.LittleEndian.PutUint64(si[SISyscall:], uint64(ps.nr))
	binary.LittleEndian.PutUint64(si[SICallAddr:], ps.callAddr)
	t.putUContext(frame[ucOff:])
	if err := t.WriteForce(sp, frame[:]); err != nil {
		k.exitGroup(t, 128+SIGSEGV)
		return
	}

	k.telSignalDelivered(t, ps.sig)
	t.frames = append(t.frames, sigFrame{ucAddr: ucAddr, oldMask: t.SigMask, sig: ps.sig})
	// Mask the delivered signal plus the handler's sa_mask for the
	// duration of the handler.
	t.SigMask |= 1<<uint(ps.sig) | act.Mask

	t.CPU.Regs[isa.RSP] = sp
	t.CPU.Regs[isa.RDI] = uint64(ps.sig)
	t.CPU.Regs[isa.RSI] = siAddr
	t.CPU.Regs[isa.RDX] = ucAddr
	t.CPU.RIP = act.Handler
}

// putUContext snapshots the task context into buf, UContextSize bytes.
func (t *Task) putUContext(buf []byte) {
	for i := 0; i < isa.NumRegs; i++ {
		binary.LittleEndian.PutUint64(buf[UCReg(i):], t.CPU.Regs[i])
	}
	binary.LittleEndian.PutUint64(buf[UCRip:], t.CPU.RIP)
	binary.LittleEndian.PutUint64(buf[UCEflags:], t.CPU.Flags())
	binary.LittleEndian.PutUint64(buf[UCGsbase:], t.CPU.GSBase)
	binary.LittleEndian.PutUint64(buf[UCSigmask:], t.SigMask)
	t.CPU.X.Marshal(buf[UCXState : UCXState+cpu.XStateSize])
	// PKRU lives in the xstate area, as with x86 XSAVE.
	binary.LittleEndian.PutUint32(buf[UCPkru:], t.CPU.PKRU)
}

// readUContext restores the task context from guest memory at addr,
// honouring any modifications made by signal handlers or interposers.
func (k *Kernel) readUContext(t *Task, addr uint64) error {
	var buf [UContextSize]byte
	if err := t.ReadForce(addr, buf[:]); err != nil {
		return err
	}
	for i := 0; i < isa.NumRegs; i++ {
		t.CPU.Regs[i] = binary.LittleEndian.Uint64(buf[UCReg(i):])
	}
	t.CPU.RIP = binary.LittleEndian.Uint64(buf[UCRip:])
	t.CPU.SetFlags(binary.LittleEndian.Uint64(buf[UCEflags:]))
	t.CPU.GSBase = binary.LittleEndian.Uint64(buf[UCGsbase:])
	t.SigMask = binary.LittleEndian.Uint64(buf[UCSigmask:])
	// Extract PKRU before unmarshalling the vector state (it occupies the
	// tail of the same area).
	t.CPU.PKRU = binary.LittleEndian.Uint32(buf[UCPkru:])
	t.AS.SetActivePKRU(t.CPU.PKRU)
	t.CPU.X.Unmarshal(buf[UCXState : UCXState+cpu.XStateSize])
	return nil
}

// sigreturn implements rt_sigreturn: restore the context saved by the
// most recent signal delivery. The saved context is re-read from guest
// memory, so user-space modifications (REG_RIP redirection!) take effect.
func (k *Kernel) sigreturn(t *Task) {
	t.CPU.Cycles += k.Costs.Sigreturn
	if len(t.frames) == 0 {
		// rt_sigreturn with no frame: Linux delivers SIGSEGV.
		k.postSignal(t, pendingSignal{sig: SIGSEGV, force: true})
		return
	}
	fr := t.frames[len(t.frames)-1]
	t.frames = t.frames[:len(t.frames)-1]
	k.telSigreturn(t, fr.sig)
	// The signal mask restored from the ucontext is authoritative: the
	// handler may have edited it.
	if err := k.readUContext(t, fr.ucAddr); err != nil {
		k.exitGroup(t, 128+SIGSEGV)
	}
}

// CurrentSigFrame exposes the top signal frame's ucontext address, if a
// signal is being handled. Interposition runtimes use it to edit the
// saved context (the paper's "modify the application's provided register
// context from within the signal handler").
func (t *Task) CurrentSigFrame() (ucAddr uint64, sig int, ok bool) {
	if len(t.frames) == 0 {
		return 0, 0, false
	}
	fr := t.frames[len(t.frames)-1]
	return fr.ucAddr, fr.sig, true
}
