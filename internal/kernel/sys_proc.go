package kernel

import (
	"encoding/binary"

	"lazypoline/internal/cpu"
	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// sysClone implements clone/fork/vfork. args[0] = flags, args[1] = child
// stack pointer (0 = share the parent's stack value, as fork does).
//
// Kernel semantics the interposition mechanisms care about (paper
// §IV-B(a)): the child's SUD configuration is CLEARED — "SUD ... is
// deactivated on every fork, clone, and execve" — so any interposition
// runtime must re-enable it in the child, which our CloneHook enables.
// Seccomp filters, by contrast, are inherited and irrevocable.
func (k *Kernel) sysClone(t *Task, args [6]uint64) sysResult {
	flags := args[0]

	var childAS *mem.AddressSpace
	if flags&CloneVM != 0 {
		childAS = t.AS
	} else {
		childAS = t.AS.Clone()
	}

	child := k.newTask(t.Name+"+", childAS)
	child.CPU.CloneState(t.CPU)
	child.CPU.Cycles = t.CPU.Cycles // the child continues on a fresh core at "now"
	child.CPU.Regs[isa.RAX] = 0     // child sees 0
	if args[1] != 0 {
		child.CPU.Regs[isa.RSP] = args[1]
	}

	if flags&CloneFiles != 0 {
		child.Files = t.Files
	} else {
		child.Files = t.Files.clone()
	}
	if flags&CloneSighand != 0 {
		child.Sig = t.Sig
	} else {
		child.Sig = t.Sig.clone()
	}
	if flags&CloneThread != 0 {
		child.Tgid = t.Tgid
	}
	child.SigMask = t.SigMask
	// In-delivery signal frames: the (copied) child stack contains the
	// frames, so the kernel-side records must be copied too — a child
	// forked from inside a signal handler must be able to sigreturn
	// through its own copy of the frame.
	child.frames = append([]sigFrame(nil), t.frames...)

	// SUD: explicitly cleared in the child.
	child.SUD = SUDConfig{}
	// seccomp: inherited (and irrevocable).
	child.Seccomp = t.Seccomp
	// Policy: the privilege-region set is shared with the parent (like
	// seccomp, a child cannot escape it by forking) and the SFIP
	// automaton state carries over — the child continues the parent's
	// syscall sequence from the clone.
	child.policyRegions = t.policyRegions
	child.sfipLast = t.sfipLast

	child.parent = t
	t.children = append(t.children, child)

	if k.CloneHook != nil {
		if err := k.CloneHook(t, child); err != nil {
			// The interposition runtime could not re-establish itself in
			// the child. Letting the child run uninterposed would break
			// the exhaustiveness guarantee, and panicking would take the
			// whole simulation down for a guest-local problem. Instead
			// the fault is guest-visible: the child dies with SIGSYS and
			// the clone fails in the parent with -EAGAIN, the errno
			// Linux uses for transient clone failures.
			k.exitTask(child, 128+SIGSYS)
			return sysErr(EAGAIN)
		}
	}
	return sysRet(int64(child.ID))
}

// sysExecve replaces the task image. args[0] = path to a registered
// image. The address space is rebuilt, signal handlers reset, SUD is
// cleared; seccomp filters and the fd table survive — all Linux
// semantics the paper leans on.
func (k *Kernel) sysExecve(t *Task, args [6]uint64) sysResult {
	var buf [pathChunk]byte
	path, errno := k.readPath(t, args[0], buf[:])
	if errno != 0 {
		return sysErr(errno)
	}
	img, ok := k.images[string(path)]
	if !ok {
		return sysErr(ENOENT)
	}
	as, err := k.loadImage(img)
	if err != nil {
		return sysErr(ENOMEM)
	}

	t.AS = as
	t.CPU.AS = as
	t.CPU.Regs = [isa.NumRegs]uint64{}
	t.CPU.Regs[isa.RSP] = stackTop - 64
	t.CPU.RIP = img.Entry
	t.CPU.GSBase = 0
	t.CPU.FSBase = 0
	t.CPU.PKRU = 0
	t.CPU.X = cpu.XState{}
	t.Sig.reset()
	t.SigMask = 0
	t.pending = nil
	t.frames = nil
	t.locals = nil      // no call of the old image is still in flight
	t.SUD = SUDConfig{} // execve disables SUD
	t.Name = string(path)
	// Policy: execve resets to a fresh, unsealed region set seeded from
	// the NEW image's executable segments (the old image's privileges
	// must not outlive it); the SFIP automaton restarts from Start.
	k.initTaskPolicy(t)
	k.policyRegisterImage(t, img)

	if k.ExecveHook != nil {
		if err := k.ExecveHook(t); err != nil {
			// The old image is already gone, so the execve cannot fail
			// with an errno (Linux is in the same bind after the point
			// of no return and kills with SIGSEGV). Deliver a forced
			// SIGSYS: guest-visible, and fatal unless handled.
			k.postSignal(t, pendingSignal{sig: SIGSYS, force: true})
			return sysNoReturn()
		}
	}
	return sysNoReturn()
}

// sysWait4 waits for a zombie child. args[0]: pid (-1 = any), args[1]:
// int status pointer (may be 0).
func (k *Kernel) sysWait4(t *Task, args [6]uint64) sysResult {
	pid := int64(args[0])
	if !t.hasChild(pid) {
		return sysErr(ECHILD)
	}
	z := t.zombieChild(pid)
	if z == nil {
		return t.block(blockedState{kind: waitChild})
	}
	// Reap.
	for i, c := range t.children {
		if c == z {
			t.children = append(t.children[:i], t.children[i+1:]...)
			break
		}
	}
	if args[1] != 0 {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(z.ExitCode))
		if err := t.WriteAt(args[1], buf[:]); err != nil {
			return sysErr(EFAULT)
		}
	}
	return sysRet(int64(z.ID))
}

// hasChild reports whether t has a child matching wait4's pid (-1: any).
func (t *Task) hasChild(pid int64) bool {
	for _, c := range t.children {
		if pid == -1 || int64(c.ID) == pid {
			return true
		}
	}
	return false
}

// zombieChild returns t's first exited child matching wait4's pid (-1:
// any), or nil.
func (t *Task) zombieChild(pid int64) *Task {
	for _, c := range t.children {
		if c.state == TaskZombie && (pid == -1 || int64(c.ID) == pid) {
			return c
		}
	}
	return nil
}
