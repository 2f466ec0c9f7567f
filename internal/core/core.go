// Package core implements lazypoline — the paper's contribution: a
// hybrid syscall interposition mechanism that is simultaneously
// exhaustive, expressive and efficient.
//
// Slow path (§IV-A): Syscall User Dispatch in its "selector-only"
// deployment — no allowlisted code range at all. Every syscall executed
// with the per-task selector at BLOCK raises SIGSYS. The SIGSYS payload
// (1) rewrites the trapping 2-byte SYSCALL into CALL RAX under a
// spinlock-guarded mprotect RW→patch→RX sequence, and (2) interposes
// this first execution by redirecting the saved context (REG_RIP) into
// the generic fast-path entry point, after pushing the return address a
// genuine `call rax` would have pushed. It sigreturns with the selector
// still at ALLOW, which the entry stub resets to BLOCK on its way out —
// so no code address is ever exempt from interception.
//
// Fast path (§IV-B): the zpoline trampoline — a nop sled at virtual
// address 0 sliding into the shared entry stub, reached by the rewritten
// `call rax`. The stub optionally xsaves/xrstors all extended state to a
// per-task %gs-relative stack (ABI compatibility, Table III), runs the
// interposer payload, executes the real (possibly modified) syscall
// under selector=ALLOW, and restores.
//
// Signals (§IV-B(c), Figure 3): application sigaction calls are
// intercepted; a wrapper handler is registered instead, which pushes the
// current selector onto a %gs-relative sigreturn stack and sets BLOCK
// before calling the real handler. The handler's rt_sigreturn is itself
// interposed: lazypoline redirects the to-be-restored context through a
// register- and flags-preserving sigreturn trampoline that pops the
// selector stack before resuming the interrupted code.
package core

import (
	"fmt"

	"lazypoline/internal/interpose"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/zpoline"
)

// Fixed guest-memory layout of the lazypoline runtime. Everything is per
// address space; fork copies it, execve re-injects it.
const (
	// RuntimeBase is the RX page holding the SIGSYS stub, the signal
	// wrapper and the sigreturn trampoline.
	RuntimeBase = 0xE000_0000
	// RuntimeDataBase is the RW page holding the app-handler table, the
	// rewrite spinlock and scratch space.
	RuntimeDataBase = 0xE001_0000

	// handlerTableOff is the offset of the 32-entry app handler table in
	// the data page.
	handlerTableOff = 0
	// spinlockOff is the rewrite spinlock word.
	spinlockOff = 0x100
	// scratchOff is scratch space for staged syscall arguments.
	scratchOff = 0x140
)

// Options configures Attach.
type Options struct {
	// SaveXState preserves all SSE/AVX/x87 state across interposition
	// (the default, as in the paper; turning it off reproduces the
	// "lazypoline without xstate preservation" configuration).
	SaveXState bool
	// NoXStateDefault inverts the SaveXState zero value: Options{} means
	// SaveXState=true. Set NoXStateDefault to honour SaveXState=false.
	NoXStateDefault bool
	// PreRewrite statically rewrites all currently mapped code up front,
	// so no slow-path activations occur for preexisting sites. The
	// paper's microbenchmark uses this to measure pure steady state
	// ("we manually rewrote the syscall instruction up front").
	PreRewrite bool
	// ProtectSelector enables the §VI security extension: the per-task
	// gs region (selector byte included) is tagged with an MPK protection
	// key, application code runs with writes to it disabled, and the
	// runtime stubs open/close the key with WRPKRU around their own gs
	// accesses. An application (or attacker) store to the selector then
	// faults instead of silently disabling interposition. Remaining
	// attack surface (WRPKRU gadgets in application code) requires
	// ERIM-style binary scanning, which is out of scope here, as in the
	// paper.
	ProtectSelector bool
}

func (o Options) saveXState() bool {
	if o.NoXStateDefault {
		return o.SaveXState
	}
	return true
}

// Stats counts runtime activity.
type Stats struct {
	// SlowPathHits is the number of SIGSYS slow-path activations.
	SlowPathHits int
	// Rewrites is the number of syscall sites rewritten to call rax.
	Rewrites int
	// Sites are the rewritten addresses.
	Sites []uint64
	// WrappedSignals counts application sigaction registrations wrapped.
	WrappedSignals int
	// SigreturnsRouted counts rt_sigreturns routed via the trampoline.
	SigreturnsRouted int
}

// Runtime is an attached lazypoline instance.
type Runtime struct {
	K      *kernel.Kernel
	Binder *interpose.Binder
	Opts   Options
	Stats  Stats

	userIP interpose.Interposer

	entryAddr   uint64 // fast-path entry (in the VA-0 trampoline page)
	sigsysAddr  uint64 // SIGSYS slow-path stub
	wrapperAddr uint64 // signal wrapper
	sigretTramp uint64 // sigreturn trampoline

	enterID, exitID, slowID int64
}

// Attach installs lazypoline for a task and hooks clone/execve so that
// children and fresh images stay interposed.
func Attach(k *kernel.Kernel, t *kernel.Task, ip interpose.Interposer, opts Options) (*Runtime, error) {
	rt := &Runtime{K: k, Opts: opts, userIP: ip}
	rt.Binder = interpose.NewBinder(&coreInterposer{rt: rt, user: ip})
	// The fast-path payloads run on shard goroutines when the user
	// interposer vouches for itself (DESIGN.md §15); the slow path
	// always serialises — it mutates rt.Stats and the rewrite-site list
	// and emits timeline spans, and it only runs once per syscall site.
	reg := k.RegisterHcall
	if rt.Binder.Concurrent() {
		reg = k.RegisterHcallConcurrent
	}
	rt.enterID = reg(rt.binderEnter)
	rt.exitID = reg(rt.Binder.Exit)
	rt.slowID = k.RegisterHcall(rt.slowPath)

	if err := rt.injectImage(t); err != nil {
		return nil, err
	}
	if err := rt.initTask(t, true); err != nil {
		return nil, err
	}
	if opts.PreRewrite {
		if err := rt.rewriteAllStatic(t); err != nil {
			return nil, err
		}
	}

	// A task we cannot interpose must never run uninstrumented. The
	// hooks report failure to the kernel, which turns it into a
	// guest-visible fault: SIGSYS for the uninterposable task, -EAGAIN
	// for a failed clone's parent — a guest-local problem stays guest
	// local instead of panicking the whole simulation.
	k.CloneHook = func(parent, child *kernel.Task) error {
		if err := rt.onClone(parent, child); err != nil {
			return fmt.Errorf("lazypoline: clone hook: %w", err)
		}
		return nil
	}
	k.ExecveHook = func(t *kernel.Task) error {
		if err := rt.onExecve(t); err != nil {
			return fmt.Errorf("lazypoline: execve hook: %w", err)
		}
		return nil
	}
	if tel := k.Telemetry(); tel != nil && tel.Metrics != nil {
		tel.Metrics.AddCollector(func(r *telemetry.Registry) {
			r.Counter("lazypoline.slowpath_hits").Set(uint64(rt.Stats.SlowPathHits))
			r.Counter("lazypoline.rewrites").Set(uint64(rt.Stats.Rewrites))
			r.Counter("lazypoline.wrapped_signals").Set(uint64(rt.Stats.WrappedSignals))
			r.Counter("lazypoline.sigreturns_routed").Set(uint64(rt.Stats.SigreturnsRouted))
		})
	}
	return rt, nil
}

// Symbols names the runtime's injected entry points, for the profiler's
// folded-stack output ("N% of cycles in sigsys_entry").
func (rt *Runtime) Symbols() map[string]uint64 {
	return map[string]uint64{
		"trampoline_sled":      0,
		"lazypoline_entry":     rt.entryAddr,
		"sigsys_entry":         rt.sigsysAddr,
		"signal_wrapper":       rt.wrapperAddr,
		"sigreturn_trampoline": rt.sigretTramp,
	}
}

// binderEnter wraps Binder.Enter but skips pushing pending state for
// syscalls whose stub context never reaches the Exit hcall.
func (rt *Runtime) binderEnter(hc *kernel.HcallCtx) error {
	return rt.Binder.Enter(hc)
}

// EntryAddr returns the fast-path entry address.
func (rt *Runtime) EntryAddr() uint64 { return rt.entryAddr }

// injectImage builds the guest-side runtime in t's address space: the
// VA-0 trampoline + entry stub, the runtime code page, and the data page.
func (rt *Runtime) injectImage(t *kernel.Task) error {
	// Trampoline page at VA 0 (zpoline fast path). Both code pages are
	// the same bytes in every task attached with the same options, so they
	// map as process-wide frames (mem.FramesOf) and share their decoded
	// blocks.
	var e isa.Enc
	e.Nop(kernel.MaxSyscallNr + 1)
	rt.entryAddr = uint64(e.Len())
	interpose.BuildEntryStub(&e, interpose.StubOpts{
		UseSUD:     true,
		SaveXState: rt.Opts.saveXState(),
		EnterHcall: rt.enterID,
		ExitHcall:  rt.exitID,
		ProtectGS:  rt.Opts.ProtectSelector,
	})
	if len(e.Buf) > mem.PageSize {
		return fmt.Errorf("lazypoline: trampoline too large (%d bytes)", len(e.Buf))
	}
	if err := t.AS.MapFrames(0, mem.FramesOf(e.Buf, mem.PageSize), mem.ProtRX); err != nil {
		return fmt.Errorf("lazypoline: map trampoline: %w", err)
	}

	// Runtime code page: SIGSYS stub, signal wrapper, sigreturn
	// trampoline.
	var r isa.Enc
	rt.sigsysAddr = RuntimeBase + uint64(r.Len())
	buildSigsysStub(&r, rt.slowID)
	rt.wrapperAddr = RuntimeBase + uint64(r.Len())
	buildSignalWrapper(&r, RuntimeDataBase+handlerTableOff, rt.Opts.ProtectSelector)
	rt.sigretTramp = RuntimeBase + uint64(r.Len())
	buildSigreturnTrampoline(&r, rt.Opts.ProtectSelector)
	if err := t.AS.MapFrames(RuntimeBase, mem.FramesOf(r.Buf, mem.PageSize), mem.ProtRX); err != nil {
		return fmt.Errorf("lazypoline: map runtime page: %w", err)
	}

	// Runtime data page.
	if err := t.AS.MapFixed(RuntimeDataBase, mem.PageSize, mem.ProtRW); err != nil {
		return fmt.Errorf("lazypoline: map runtime data: %w", err)
	}
	return nil
}

// initTask prepares one task: per-task gs region, SIGSYS handler
// registration, SUD enablement, selector=BLOCK.
func (rt *Runtime) initTask(t *kernel.Task, registerHandler bool) error {
	gsBase, err := t.AS.MapAnon(interpose.GSSize, mem.ProtRW)
	if err != nil {
		return fmt.Errorf("lazypoline: map gs region: %w", err)
	}
	t.CPU.GSBase = gsBase
	if err := interpose.InitGSRegion(t, gsBase); err != nil {
		return err
	}
	if registerHandler {
		// The runtime's own SIGSYS handler (not wrapped).
		t.Sig.Set(kernel.SIGSYS, kernel.SigAction{Handler: rt.sigsysAddr})
	}
	if rt.Opts.ProtectSelector {
		// §VI: isolate the gs region behind a protection key; the
		// application runs with writes to it disabled.
		if err := t.AS.SetPkey(gsBase, interpose.GSSize, interpose.GSPkey); err != nil {
			return err
		}
		t.CPU.PKRU = mem.PkeyWriteDisableBit(interpose.GSPkey)
		t.AS.SetActivePKRU(t.CPU.PKRU)
	}
	// Selector-only SUD: no allowlisted range whatsoever.
	if err := rt.K.ConfigSUD(t, kernel.SUDConfig{
		Enabled:      true,
		SelectorAddr: gsBase + interpose.GSSelector,
	}); err != nil {
		return err
	}
	// Arm interposition: selector = BLOCK.
	return t.AS.WriteForce(gsBase+interpose.GSSelector, []byte{kernel.SyscallDispatchFilterBlock})
}

// rewriteAllStatic is the optional up-front pass (microbench steady
// state): scan and rewrite every executable region except the runtime's
// own pages and the vdso. The selector is parked at ALLOW for the
// duration so the pass's own mprotect syscalls dispatch.
func (rt *Runtime) rewriteAllStatic(t *kernel.Task) error {
	selAddr := t.CPU.GSBase + interpose.GSSelector
	if err := t.AS.WriteForce(selAddr, []byte{kernel.SyscallDispatchFilterAllow}); err != nil {
		return err
	}
	defer func() {
		_ = t.AS.WriteForce(selAddr, []byte{kernel.SyscallDispatchFilterBlock})
	}()
	for _, r := range t.AS.Regions() {
		if r.Prot&mem.ProtExec == 0 {
			continue
		}
		if r.Addr == 0 || r.Addr == kernel.VdsoBase || r.Addr == RuntimeBase {
			continue
		}
		code := make([]byte, r.Length)
		if err := t.AS.ReadForce(r.Addr, code); err != nil {
			return err
		}
		for _, site := range zpoline.FindSyscallSites(code, r.Addr, zpoline.ScanLinear) {
			if err := rt.rewriteSite(t, site); err != nil {
				return err
			}
		}
	}
	return nil
}
