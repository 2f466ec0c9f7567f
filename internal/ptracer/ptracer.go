// Package ptracer implements the ptrace-based interposition baseline
// (§II-A): a tracer attached to the tracee receives synchronous syscall-
// enter and syscall-exit stops, at the price of two context switches per
// stop plus one ptrace operation per register/memory access — the "Low
// efficiency" row of Table I. Like SUD it is fully exhaustive (the kernel
// stops every syscall, wherever its instruction came from) and fully
// expressive (the tracer reads and writes arbitrary tracee state).
package ptracer

import (
	"lazypoline/internal/interpose"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
)

// Mechanism is an attached ptrace interposer.
type Mechanism struct {
	// Stops counts syscall-enter stops.
	Stops int

	ip interpose.Interposer
	k  *kernel.Kernel
}

// Attach attaches a tracer to the task.
func Attach(k *kernel.Kernel, t *kernel.Task, ip interpose.Interposer) *Mechanism {
	m := &Mechanism{ip: ip, k: k}
	k.AttachTracer(t, &kernel.Tracer{
		OnEnter: m.onEnter,
		OnExit:  m.onExit,
	})
	if tel := k.Telemetry(); tel != nil && tel.Metrics != nil {
		tel.Metrics.AddCollector(func(r *telemetry.Registry) {
			r.Counter("ptracer.stops").Set(uint64(m.Stops))
		})
	}
	return m
}

// onEnter handles a syscall-enter stop: PTRACE_GETREGS, run the
// interposer, PTRACE_SETREGS.
func (m *Mechanism) onEnter(stop *kernel.PtraceStop) {
	m.Stops++
	t := stop.Task
	regs := stop.GetRegs()
	stack := interpose.Pending(t, m)
	c := stack.Push(t)
	c.Nr = int64(regs[isa.RAX])
	c.Args = [6]uint64{
		regs[isa.RDI], regs[isa.RSI], regs[isa.RDX],
		regs[isa.R10], regs[isa.R8], regs[isa.R9],
	}
	if stack.Enter(m.ip, c) == interpose.Emulate {
		// ptrace emulation idiom: rewrite the syscall number to an
		// invalid one so the kernel fails it, then patch the return value
		// at the exit stop.
		regs[isa.RAX] = uint64(int64(kernel.NonexistentSyscall))
		stop.SetRegs(regs)
		return
	}
	regs[isa.RAX] = uint64(c.Nr)
	regs[isa.RDI], regs[isa.RSI], regs[isa.RDX] = c.Args[0], c.Args[1], c.Args[2]
	regs[isa.R10], regs[isa.R8], regs[isa.R9] = c.Args[3], c.Args[4], c.Args[5]
	stop.SetRegs(regs)
}

// onExit handles a syscall-exit stop, writing RAX back only if the
// result the task must see differs. Ptrace stops are synchronous per
// task and the in-flight calls live on the task, so nothing here is
// shared between tasks or between concurrently running machines.
func (m *Mechanism) onExit(stop *kernel.PtraceStop) {
	t := stop.Task
	regs := stop.GetRegs()
	ret := int64(regs[isa.RAX])
	if out := interpose.Pending(t, m).Exit(m.ip, t, ret); out != ret {
		regs[isa.RAX] = uint64(out)
		stop.SetRegs(regs)
	}
}
