// Package lazypoline is the public façade of lazypoline-go: a pure-Go
// reproduction of "System Call Interposition Without Compromise"
// (DSN 2024) on a simulated x86-64 machine and Linux-like kernel.
//
// The package re-exports the stable surface of the internal packages so
// downstream users need a single import for the common workflow:
//
//	k := lazypoline.NewKernel()
//	prog, _ := lazypoline.BuildGuest("hello", lazypoline.GuestHeader+`
//	_start:
//	    mov64 rax, SYS_getpid
//	    syscall
//	    mov rdi, rax
//	    mov64 rax, SYS_exit
//	    syscall
//	`)
//	task, _ := prog.Spawn(k)
//	rec := lazypoline.NewRecorder()
//	rt, _ := lazypoline.Attach(k, task, rec, lazypoline.Options{})
//	_ = k.Run(-1)
//
// For the baselines (zpoline, SUD, seccomp, ptrace), the evaluation
// harnesses, the Pin-like analysis and the web-server benchmark, import
// the specific internal package; DESIGN.md carries the inventory.
package lazypoline

import (
	"lazypoline/internal/core"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/trace"
)

// Re-exported types: the simulated OS.
type (
	// Kernel is the simulated operating system; see kernel.Kernel.
	Kernel = kernel.Kernel
	// KernelConfig configures NewKernelWith.
	KernelConfig = kernel.Config
	// Task is one guest thread of execution.
	Task = kernel.Task
	// CostModel prices every modelled operation in cycles.
	CostModel = kernel.CostModel
)

// Re-exported types: the interposition API.
type (
	// Interposer is the user-supplied syscall handler (fully expressive).
	Interposer = interpose.Interposer
	// Call is one interposed syscall.
	Call = interpose.Call
	// Action is an Enter hook's verdict (Continue or Emulate).
	Action = interpose.Action
	// FuncInterposer adapts plain functions to Interposer.
	FuncInterposer = interpose.FuncInterposer
	// Dummy executes every syscall unmodified (the benchmark interposer).
	Dummy = interpose.Dummy
)

// Re-exported types: lazypoline itself and guest tooling.
type (
	// Options configures Attach; see core.Options.
	Options = core.Options
	// Runtime is an attached lazypoline instance with its Stats.
	Runtime = core.Runtime
	// GuestProgram is an assembled guest executable.
	GuestProgram = guest.Program
	// Recorder is a tracing interposer (strace-style).
	Recorder = trace.Recorder
	// TraceEntry is one recorded syscall.
	TraceEntry = trace.Entry
)

// Interposer verdicts.
const (
	// Continue executes the (possibly modified) syscall.
	Continue = interpose.Continue
	// Emulate skips the syscall and uses Call.Ret as its result.
	Emulate = interpose.Emulate
)

// GuestHeader is the assembly prelude for BuildGuest sources, generated
// from the syscall table: SYS_<name> per syscall, O_* flags and DATA.
var GuestHeader = guest.Header

// NewKernel returns a simulated kernel with the default cost model, an
// empty in-memory filesystem and a loopback network stack.
func NewKernel() *Kernel {
	return kernel.New(kernel.Config{})
}

// NewKernelWith returns a kernel with explicit configuration.
func NewKernelWith(cfg KernelConfig) *Kernel {
	return kernel.New(cfg)
}

// DefaultCostModel returns the cycle prices calibrated against the
// paper's Table II.
func DefaultCostModel() CostModel {
	return kernel.DefaultCostModel()
}

// BuildGuest assembles guest source (entry `_start`) into a loadable
// program. Prepend GuestHeader for the SYS_* constants.
func BuildGuest(name, src string) (*GuestProgram, error) {
	return guest.Build(name, src)
}

// Attach installs lazypoline — selector-only SUD slow path, lazy
// rewriting, zpoline-style fast path — on a task. The interposer sees
// every syscall the task (and its children) will ever make.
func Attach(k *Kernel, t *Task, ip Interposer, opts Options) (*Runtime, error) {
	return core.Attach(k, t, ip, opts)
}

// NewRecorder returns a tracing interposer.
func NewRecorder() *Recorder {
	return &trace.Recorder{}
}

// SyscallName renders a syscall number like "getpid".
func SyscallName(nr int64) string {
	return kernel.SyscallName(nr)
}
