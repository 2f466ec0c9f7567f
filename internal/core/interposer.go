package core

import (
	"encoding/binary"

	"lazypoline/internal/interpose"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// protBits converts mem protections to the syscall ABI bits.
func protBits(p mem.Prot) uint64 {
	var b uint64
	if p&mem.ProtRead != 0 {
		b |= kernel.ProtReadBit
	}
	if p&mem.ProtWrite != 0 {
		b |= kernel.ProtWriteBit
	}
	if p&mem.ProtExec != 0 {
		b |= kernel.ProtExecBit
	}
	return b
}

// coreInterposer wraps the user interposer with lazypoline's own
// handling of the "more complex syscalls" (§IV-A(c)): rt_sigaction
// (handler wrapping), rt_sigreturn (trampoline routing), and the
// teardown-sensitive clone/execve paths (handled via kernel hooks).
// Sharing a single implementation between the fast and slow paths is
// exactly the paper's motivation for the selector-only design.
type coreInterposer struct {
	rt   *Runtime
	user interpose.Interposer
}

var _ interpose.Interposer = (*coreInterposer)(nil)

// ConcurrentInterposer implements interpose.ConcurrentSafe: the wrapper
// adds no shared state on the common-syscall path (the rare complex
// branches in Enter park on the frontier themselves before touching
// rt.Stats or registering through the kernel), so the payloads are
// shard-safe exactly when the wrapped user interposer is.
func (ci *coreInterposer) ConcurrentInterposer() bool {
	cs, ok := ci.user.(interpose.ConcurrentSafe)
	return ok && cs.ConcurrentInterposer()
}

// Enter implements interpose.Interposer.
func (ci *coreInterposer) Enter(c *interpose.Call) interpose.Action {
	switch c.Nr {
	case kernel.SysRtSigaction:
		ci.rt.K.Serialize(c.Task)
		if act := ci.enterSigaction(c); act == interpose.Emulate {
			// The user interposer still observes the call.
			ci.user.Enter(c)
			return interpose.Emulate
		}
	case kernel.SysRtSigreturn:
		ci.rt.K.Serialize(c.Task)
		ci.enterSigreturn(c)
		// The real rt_sigreturn executes in the stub; the user interposer
		// observes it first (it cannot modify the semantics meaningfully).
		ci.user.Enter(c)
		return interpose.Continue
	case kernel.SysClone:
		ci.enterClone(c)
	}
	return ci.user.Enter(c)
}

// enterClone handles clone with a caller-provided child stack. The child
// resumes INSIDE the entry stub (right after its SYSCALL instruction)
// but with RSP pointing at the fresh stack, where the stub's saved-
// register frame does not exist. lazypoline therefore materialises a
// copy of the stub frame at the top of the child stack and points the
// clone argument below it, so the child's pops and final ret find
// exactly the application state the parent had — one of the "complex
// syscalls such as vfork [and] clone" that sharing one fast/slow-path
// implementation makes tractable (§IV-A(c)).
func (ci *coreInterposer) enterClone(c *interpose.Call) {
	if c.Args[1] == 0 {
		return // fork-style: the child inherits a copy of the whole stack
	}
	t := c.Task
	const frameSize = 16 * 8 // 15 saved GPRs + the call-rax return address
	frame := make([]byte, frameSize)
	if err := t.ReadForce(t.CPU.Regs[isa.RSP], frame); err != nil {
		return
	}
	newSP := (c.Args[1] - frameSize) &^ 7
	if err := t.WriteForce(newSP, frame); err != nil {
		return
	}
	c.Args[1] = newSP
}

// Exit implements interpose.Interposer.
func (ci *coreInterposer) Exit(c *interpose.Call) { ci.user.Exit(c) }

// enterSigaction intercepts the application's attempts to register
// custom signal handlers: the real registration installs lazypoline's
// wrapper, and the app handler goes into the in-guest table.
func (ci *coreInterposer) enterSigaction(c *interpose.Call) interpose.Action {
	t := c.Task
	rt := ci.rt
	sig := int(c.Args[0])
	actPtr, oldPtr := c.Args[1], c.Args[2]

	if sig <= 0 || sig >= kernel.NumSignals {
		return interpose.Continue // let the kernel produce EINVAL
	}
	// SIGSYS belongs to the lazypoline runtime itself; an application
	// registration is recorded but never installed (the runtime cannot
	// give it up without losing exhaustiveness).
	tableSlot := uint64(RuntimeDataBase + handlerTableOff + 8*sig)

	// Transparency: report the previously registered *application*
	// handler, not our wrapper.
	if oldPtr != 0 {
		prev, err := t.ReadU64(tableSlot)
		if err != nil {
			c.Ret = -kernel.EFAULT
			return interpose.Emulate
		}
		var old [kernel.SigactionSize]byte
		binary.LittleEndian.PutUint64(old[0:], prev)
		if err := t.WriteForce(oldPtr, old[:]); err != nil {
			c.Ret = -kernel.EFAULT
			return interpose.Emulate
		}
	}
	if actPtr == 0 {
		c.Ret = 0
		return interpose.Emulate
	}

	var act [kernel.SigactionSize]byte
	if err := t.ReadForce(actPtr, act[:]); err != nil {
		c.Ret = -kernel.EFAULT
		return interpose.Emulate
	}
	handler := binary.LittleEndian.Uint64(act[0:8])
	mask := binary.LittleEndian.Uint64(act[8:16])
	flags := binary.LittleEndian.Uint64(act[16:24])

	// Record the app handler.
	if err := t.WriteU64(tableSlot, handler); err != nil {
		c.Ret = -kernel.EFAULT
		return interpose.Emulate
	}

	// Default / ignore dispositions and SIGSYS pass through to the
	// kernel unmodified (nothing to wrap).
	if handler == kernel.SigDfl || handler == kernel.SigIgn || sig == kernel.SIGSYS {
		if sig == kernel.SIGSYS {
			c.Ret = 0
			return interpose.Emulate // never displace the runtime handler
		}
		return interpose.Continue
	}

	// Stage a sigaction struct pointing at the wrapper and register it.
	// The application's mask AND flags carry over: SA_RESTART semantics
	// for interrupted syscalls must survive the wrapping.
	scratch := uint64(RuntimeDataBase + scratchOff)
	var staged [kernel.SigactionSize]byte
	binary.LittleEndian.PutUint64(staged[0:], rt.wrapperAddr)
	binary.LittleEndian.PutUint64(staged[8:], mask)
	binary.LittleEndian.PutUint64(staged[16:], flags)
	if err := t.WriteForce(scratch, staged[:]); err != nil {
		c.Ret = -kernel.EFAULT
		return interpose.Emulate
	}
	ret := rt.K.Syscall(t, kernel.SysRtSigaction, [6]uint64{uint64(sig), scratch, 0})
	c.Ret = ret
	if ret == 0 {
		rt.Stats.WrappedSignals++
	}
	return interpose.Emulate
}

// enterSigreturn handles the wrapper's rt_sigreturn (Figure 3 steps
// ③/④): before the real sigreturn executes in the stub, redirect the
// to-be-restored context through the sigreturn trampoline, and leave the
// resume address in the top gs sigreturn-stack frame for the trampoline
// to consume.
func (ci *coreInterposer) enterSigreturn(c *interpose.Call) {
	t := c.Task
	rt := ci.rt
	ucAddr, _, ok := t.CurrentSigFrame()
	if !ok {
		return // stray sigreturn; the kernel will SIGSEGV it
	}
	srsTop, err := t.ReadU64(t.CPU.GSBase + interpose.GSSigretTop)
	if err != nil || srsTop < interpose.GSSigretStack+16 {
		return // no wrapper frame: an unwrapped sigreturn, leave it alone
	}
	resume, err := t.ReadU64(ucAddr + kernel.UCRip)
	if err != nil {
		return
	}
	// frame.rip = original resume address.
	if err := t.WriteU64(t.CPU.GSBase+srsTop-16+8, resume); err != nil {
		return
	}
	// The restored context enters the trampoline instead.
	if err := t.WriteU64(ucAddr+kernel.UCRip, rt.sigretTramp); err != nil {
		return
	}
	rt.Stats.SigreturnsRouted++
}

// onClone re-establishes interposition in a new task: SUD was cleared by
// the kernel (Linux semantics), and threads need their own gs region
// even though they share the address space.
func (rt *Runtime) onClone(parent, child *kernel.Task) error {
	if child.AS == parent.AS {
		// CLONE_VM: allocate a fresh gs region in the shared address
		// space and copy the parent's (the child resumes inside the entry
		// stub and will xrstor/pop from its own region).
		gsBase, err := child.AS.MapAnon(interpose.GSSize, mem.ProtRW)
		if err != nil {
			return err
		}
		buf := make([]byte, interpose.GSSize)
		if err := child.AS.ReadForce(parent.CPU.GSBase, buf); err != nil {
			return err
		}
		if err := child.AS.WriteForce(gsBase, buf); err != nil {
			return err
		}
		// Fix the self pointer.
		if err := child.AS.WriteU64(gsBase+interpose.GSSelf, gsBase); err != nil {
			return err
		}
		child.CPU.GSBase = gsBase
		if rt.Opts.ProtectSelector {
			if err := child.AS.SetPkey(gsBase, interpose.GSSize, interpose.GSPkey); err != nil {
				return err
			}
		}
	}
	// Fork: the copied address space already contains a private copy of
	// the gs region at the same address; GSBase was copied with the CPU
	// state.
	return rt.K.ConfigSUD(child, kernel.SUDConfig{
		Enabled:      true,
		SelectorAddr: child.CPU.GSBase + interpose.GSSelector,
	})
}

// onExecve re-injects the whole runtime into the fresh image (the
// kernel cleared SUD and reset the handler table), mirroring an
// LD_PRELOAD-style re-injection.
func (rt *Runtime) onExecve(t *kernel.Task) error {
	if err := rt.injectImage(t); err != nil {
		return err
	}
	return rt.initTask(t, true)
}
