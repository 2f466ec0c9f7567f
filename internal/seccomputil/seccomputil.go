// Package seccomputil implements the two seccomp-based interposition
// baselines of Table I:
//
//   - seccomp-bpf: the filter runs entirely in kernel space. Highly
//     efficient, exhaustive, but limited in expressiveness — a cBPF
//     program over the 64-byte seccomp_data snapshot, with no pointer
//     dereferencing and no way to modify arguments. Policies are
//     therefore restricted to allow / errno / kill decisions on shallow
//     data.
//
//   - seccomp-user: a filter returning RET_TRAP defers handling to a
//     user-space SIGSYS handler, regaining full expressiveness at the
//     cost of a signal round trip per interposed syscall (like SUD, but
//     with the additional per-syscall BPF execution).
package seccomputil

import (
	"fmt"

	"lazypoline/internal/bpf"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// BPFPolicy is the expressiveness-limited policy language of seccomp-bpf:
// per-syscall decisions on shallow data only.
type BPFPolicy struct {
	// Allowed syscall numbers pass through.
	Allowed []int32
	// Errno syscall numbers fail with the given errno.
	Errno map[int32]uint16
	// DefaultKill kills the process on anything else; otherwise the
	// default is allow.
	DefaultKill bool
}

// AttachBPF installs an in-kernel seccomp-bpf policy. There is no
// user-space component at all — and correspondingly no way to inspect
// pointer arguments or rewrite anything.
func AttachBPF(k *kernel.Kernel, t *kernel.Task, policy BPFPolicy) error {
	insns := []bpf.Instruction{bpf.LoadNr()}
	for nr, errno := range policy.Errno {
		insns = append(insns, bpf.JeqK(uint32(nr), 0, 1), bpf.Ret(bpf.RetErrno|uint32(errno)))
	}
	for _, nr := range policy.Allowed {
		insns = append(insns, bpf.JeqK(uint32(nr), 0, 1), bpf.Ret(bpf.RetAllow))
	}
	if policy.DefaultKill {
		insns = append(insns, bpf.Ret(bpf.RetKillProcess))
	} else {
		insns = append(insns, bpf.Ret(bpf.RetAllow))
	}
	prog, err := bpf.New(insns)
	if err != nil {
		return fmt.Errorf("seccomputil: build filter: %w", err)
	}
	k.AttachSeccomp(t, prog)
	return nil
}

// UserMechanism is an attached seccomp-user interposer.
type UserMechanism struct {
	// Traps counts SIGSYS activations.
	Traps int
}

// handlerBase places the seccomp-user SIGSYS stub next to the vdso; its
// syscalls are exempted from the filter by an instruction-pointer range
// check (the technique the paper notes is "slower than SUD's more direct
// filtering" because the BPF program still runs on every syscall).
const handlerBase = kernel.VdsoBase + 2*mem.PageSize

// AttachUser installs seccomp-user interposition: every syscall outside
// the handler/vdso range traps to a SIGSYS handler that interposes it
// with full expressiveness — the handler SUD uses, behind a different
// trap.
func AttachUser(k *kernel.Kernel, t *kernel.Task, ip interpose.Interposer) (*UserMechanism, error) {
	m := &UserMechanism{}
	if err := interpose.InstallSigsysHandler(k, t, ip, handlerBase, &m.Traps); err != nil {
		return nil, fmt.Errorf("seccomputil: %w", err)
	}

	// The filter: trap everything invoked outside [VdsoBase, +3 pages)
	// (vdso sigreturn + the SUD handler slot + our handler page).
	prog, err := bpf.TrapAll(kernel.VdsoBase, 3*mem.PageSize, bpf.RetTrap)
	if err != nil {
		return nil, err
	}
	k.AttachSeccomp(t, prog)
	return m, nil
}
