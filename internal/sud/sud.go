// Package sud implements the "typical SUD deployment" the paper uses as
// its exhaustive-but-slower baseline (§II-A): Syscall User Dispatch with
// a SIGSYS handler that performs the interposition inside the signal
// handler, plus an allowlisted code-address range covering the handler's
// own syscall instructions and the kernel's vdso sigreturn stub, so the
// handler can invoke the real syscall and return without recursing.
//
// Every application syscall therefore costs a full signal delivery and
// sigreturn — the 20.8x of Table II — but interception is exhaustive:
// JIT-generated syscalls trap exactly like static ones. The allowlisted
// range is also the deployment's security weakness the paper highlights
// ("attackers could simply jump to any allowlisted syscall instruction"),
// which lazypoline's selector-only design eliminates.
package sud

import (
	"fmt"

	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
	"lazypoline/internal/telemetry"
)

// HandlerBase is where the SIGSYS handler stub is mapped: directly after
// the vdso, so one contiguous allowlisted range [VdsoBase, VdsoBase+2p)
// covers both the handler's syscall and the sigreturn stub.
const HandlerBase = kernel.VdsoBase + mem.PageSize

// Mechanism is an attached SUD interposer.
type Mechanism struct {
	// Hits counts SIGSYS activations (one per application syscall).
	Hits int
}

// Attach installs the typical SUD deployment on a task.
func Attach(k *kernel.Kernel, t *kernel.Task, ip interpose.Interposer) (*Mechanism, error) {
	m := &Mechanism{}
	// The SIGSYS handler and the gs region holding the selector byte.
	if err := interpose.InstallSigsysHandler(k, t, ip, HandlerBase, &m.Hits); err != nil {
		return nil, fmt.Errorf("sud: %w", err)
	}
	gsBase := t.CPU.GSBase

	// SUD with the contiguous vdso+handler range allowlisted.
	if err := k.ConfigSUD(t, kernel.SUDConfig{
		Enabled:      true,
		SelectorAddr: gsBase + interpose.GSSelector,
		RangeLo:      kernel.VdsoBase,
		RangeLen:     2 * mem.PageSize,
	}); err != nil {
		return nil, err
	}
	if err := t.AS.WriteForce(gsBase+interpose.GSSelector,
		[]byte{kernel.SyscallDispatchFilterBlock}); err != nil {
		return nil, err
	}

	// The kernel clears SUD in clone/fork children; a real SUD library
	// re-enables it there (the handler page, gs region and selector all
	// exist in the child's copied address space at the same addresses).
	k.CloneHook = func(parent, child *kernel.Task) error {
		cfg := kernel.SUDConfig{
			Enabled:      true,
			SelectorAddr: child.CPU.GSBase + interpose.GSSelector,
			RangeLo:      kernel.VdsoBase,
			RangeLen:     2 * mem.PageSize,
		}
		if err := k.ConfigSUD(child, cfg); err != nil {
			// A child we cannot re-interpose must not run: report the
			// failure to the kernel, which kills the child with SIGSYS
			// and fails the parent's clone with -EAGAIN.
			return fmt.Errorf("sud: clone hook: %w", err)
		}
		return nil
	}

	if tel := k.Telemetry(); tel != nil && tel.Metrics != nil {
		tel.Metrics.AddCollector(func(r *telemetry.Registry) {
			r.Counter("sud.sigsys_hits").Set(uint64(m.Hits))
		})
	}
	return m, nil
}

// Symbols names the mechanism's injected code for profiler output.
func (m *Mechanism) Symbols() map[string]uint64 {
	return map[string]uint64{"sud_handler": HandlerBase}
}
