package interpose

import (
	"fmt"

	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// StubOpts configures the generic interposer entry stub.
type StubOpts struct {
	// UseSUD makes the stub flip the gs selector to ALLOW on entry and
	// back to BLOCK on exit (lazypoline). zpoline runs without SUD and
	// leaves the selector alone.
	UseSUD bool
	// SaveXState makes the stub xsave/xrstor the extended state to the
	// per-task gs xstate stack — the paper's ABI-compatibility feature,
	// individually toggleable exactly like lazypoline's configurable
	// option.
	SaveXState bool
	// EnterHcall / ExitHcall are the registered hcall ids for the
	// interposer's Go payload.
	EnterHcall, ExitHcall int64
	// ProtectGS wraps all gs-region accesses in WRPKRU open/close pairs
	// (the §VI security extension): the gs page is tagged with protection
	// key 1 and application code runs with writes to it disabled, so an
	// attacker cannot simply flip the SUD selector. The usual MPK caveats
	// apply (an attacker who can execute WRPKRU gadgets needs ERIM-style
	// code scanning to be stopped; see the package documentation).
	ProtectGS bool
}

// GSPkey is the protection key the gs region is tagged with when
// ProtectGS is enabled.
const GSPkey = 1

// BuildEntryStub emits the generic interposer entry point. It is entered
// like a function call with the syscall number in RAX — either from a
// rewritten `call rax`, or from the SUD slow path redirecting REG_RIP
// here after pushing a synthetic return address (§IV-A(c): the shared
// "single syscall handling implementation between the fast and slow
// path").
//
// Contract (the syscall ABI of §IV-B(b)): every general purpose register
// except RAX is preserved across the stub; RAX carries the return value.
// With SaveXState, all vector/x87 state is preserved too. The stub
// contains the only genuine SYSCALL instruction executed on behalf of
// the application; with UseSUD it runs under selector=ALLOW, so it
// dispatches without SIGSYS but still pays the SUD-enabled entry tax.
func BuildEntryStub(e *isa.Enc, opts StubOpts) {
	// Save all GPRs (except RSP) in saveOrder.
	for _, r := range saveOrder {
		e.Push(r)
	}
	if opts.ProtectGS {
		// Open the gs-region protection key for the duration of the stub.
		e.MovImm64(isa.RBX, 0)
		e.Wrpkru(isa.RBX)
	}
	if opts.UseSUD {
		e.GsStoreBI(GSSelector, kernel.SyscallDispatchFilterAllow)
	}
	if opts.SaveXState {
		// xsave to gs xstate stack top, then push the stack.
		e.GsLoad(isa.RBX, GSSelf)
		e.GsLoad(isa.RCX, GSXSaveTop)
		e.Add(isa.RBX, isa.RCX)
		e.Xsave(isa.RBX)
		e.GsAddI(GSXSaveTop, 512)
	}
	e.Hcall(opts.EnterHcall)
	// Emulation check: the Enter payload may set gs[GSEmulate]=1 to skip
	// the real syscall (it has already written the result into the saved
	// RAX slot).
	e.GsLoadB(isa.RBX, GSEmulate)
	e.CmpImm(isa.RBX, 1)
	jzAt := e.Len()
	e.Jz(0) // patched below

	// Reload the (possibly modified) syscall registers from the save
	// area and perform the real syscall.
	e.Load(isa.RAX, isa.RSP, SavedRegOffset(isa.RAX))
	e.Load(isa.RDI, isa.RSP, SavedRegOffset(isa.RDI))
	e.Load(isa.RSI, isa.RSP, SavedRegOffset(isa.RSI))
	e.Load(isa.RDX, isa.RSP, SavedRegOffset(isa.RDX))
	e.Load(isa.R10, isa.RSP, SavedRegOffset(isa.R10))
	e.Load(isa.R8, isa.RSP, SavedRegOffset(isa.R8))
	e.Load(isa.R9, isa.RSP, SavedRegOffset(isa.R9))
	e.Syscall()
	e.Store(isa.RSP, SavedRegOffset(isa.RAX), isa.RAX)

	// Patch the jz to land here (skip label).
	patchRel32(e, jzAt, e.Len())

	e.GsStoreBI(GSEmulate, 0)
	e.Hcall(opts.ExitHcall)
	if opts.SaveXState {
		e.GsAddI(GSXSaveTop, -512)
		e.GsLoad(isa.RBX, GSSelf)
		e.GsLoad(isa.RCX, GSXSaveTop)
		e.Add(isa.RBX, isa.RCX)
		e.Xrstor(isa.RBX)
	}
	if opts.UseSUD {
		e.GsStoreBI(GSSelector, kernel.SyscallDispatchFilterBlock)
	}
	if opts.ProtectGS {
		// Close the key again: the application resumes with gs writes
		// disabled.
		e.MovImm64(isa.RBX, int64(mem.PkeyWriteDisableBit(GSPkey)))
		e.Wrpkru(isa.RBX)
	}
	// Restore all GPRs; the pop of RAX loads the final return value from
	// the (stub- or payload-written) save slot.
	for i := len(saveOrder) - 1; i >= 0; i-- {
		e.Pop(saveOrder[i])
	}
	e.Ret()
}

// patchRel32 fixes up a previously emitted rel32 branch at insnOff so it
// jumps to target (both offsets within the encoder's buffer).
func patchRel32(e *isa.Enc, insnOff, target int) {
	rel := int32(target - (insnOff + 5))
	e.Buf[insnOff+1] = byte(rel)
	e.Buf[insnOff+2] = byte(rel >> 8)
	e.Buf[insnOff+3] = byte(rel >> 16)
	e.Buf[insnOff+4] = byte(rel >> 24)
}

// Binder connects an Interposer to the entry stub's two hcalls. The
// in-flight calls (nested interposition happens when a signal arrives
// during an interposed syscall) are kept on each task (Pending), so the
// Binder itself holds no per-task state and its payloads touch nothing
// but the invoking task.
type Binder struct {
	ip Interposer
}

// NewBinder returns a Binder for ip.
func NewBinder(ip Interposer) *Binder {
	return &Binder{ip: ip}
}

// Enter is the stub's pre-syscall hcall payload: it reads the call from
// the save area, runs the interposer and stores back what it changed —
// for an emulated call the result and the emulate flag.
func (b *Binder) Enter(hc *kernel.HcallCtx) error {
	t := hc.Task
	stack := Pending(t, b)
	c := stack.Push(t)
	if err := ReadCall(c); err != nil {
		stack.Pop()
		return fmt.Errorf("interpose: read call: %w", err)
	}
	before := *c
	action := stack.Enter(b.ip, c)
	if err := WriteCall(t, c, &before); err != nil {
		return fmt.Errorf("interpose: write call: %w", err)
	}
	if action != Emulate {
		return nil
	}
	if err := WriteSavedReg(t, isa.RAX, uint64(c.Ret)); err != nil {
		return err
	}
	return t.WriteForce(t.CPU.GSBase+GSEmulate, []byte{1})
}

// Exit is the stub's post-syscall hcall payload.
func (b *Binder) Exit(hc *kernel.HcallCtx) error {
	t := hc.Task
	ret, err := ReadSavedReg(t, isa.RAX)
	if err != nil {
		return err
	}
	if out := Pending(t, b).Exit(b.ip, t, int64(ret)); out != int64(ret) {
		return WriteSavedReg(t, isa.RAX, uint64(out))
	}
	return nil
}
