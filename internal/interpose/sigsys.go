package interpose

import (
	"encoding/binary"
	"fmt"

	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// sigsysHandler interposes inside a SIGSYS handler: the deployment shared
// by typical SUD and seccomp-user, which differ only in what makes the
// kernel abort the syscall and raise the signal. The handler stub calls
// enter, performs the staged syscall from a code range the trap
// condition exempts, calls exit, and returns through the vdso sigreturn
// stub; the application resumes from the saved context, whose RAX exit
// has set to the result.
type sigsysHandler struct {
	ip   Interposer
	hits *int
}

// InstallSigsysHandler gives t a gs region and a SIGSYS handler stub at
// base (one page, which the caller's trap condition must exempt together
// with the vdso page) that interposes every trapped syscall with ip.
// *hits counts activations. The caller arms the trap afterwards.
func InstallSigsysHandler(k *kernel.Kernel, t *kernel.Task, ip Interposer, base uint64, hits *int) error {
	h := &sigsysHandler{ip: ip, hits: hits}
	preID := k.RegisterHcall(h.enter)
	postID := k.RegisterHcall(h.exit)

	gsBase, err := t.AS.MapAnon(GSSize, mem.ProtRW)
	if err != nil {
		return fmt.Errorf("interpose: map gs region: %w", err)
	}
	t.CPU.GSBase = gsBase
	if err := InitGSRegion(t, gsBase); err != nil {
		return err
	}

	// Registers are free to clobber: sigreturn restores the full saved
	// context, and the result is written into the saved RAX by exit.
	var e isa.Enc
	e.Hcall(preID) // read call from ucontext, ip.Enter, stage into gs scratch
	e.GsLoadB(isa.RBX, GSEmulate)
	e.CmpImm(isa.RBX, 1)
	jzAt := e.Len()
	e.Jz(0) // patched to skip the syscall
	// The scratch qwords: the number, then the six arguments. The first
	// doubles as the result slot once the syscall has run or was emulated.
	e.GsLoad(isa.RAX, GSSudScratch)
	for i, r := range argRegs {
		e.GsLoad(r, GSSudScratch+8+8*int64(i))
	}
	e.Syscall() // inside the exempted range: dispatches, may block
	e.GsStore(GSSudScratch, isa.RAX)
	patchRel32(&e, jzAt, e.Len())
	e.GsStoreBI(GSEmulate, 0)
	e.Hcall(postID) // ip.Exit, write result into the saved context
	e.Ret()         // into the vdso sigreturn stub

	if err := t.AS.MapFrames(base, mem.FramesOf(e.Buf, mem.PageSize), mem.ProtRX); err != nil {
		return fmt.Errorf("interpose: map SIGSYS handler page: %w", err)
	}
	t.Sig.Set(kernel.SIGSYS, kernel.SigAction{Handler: base})
	return nil
}

// enter is the pre-syscall payload: pull the aborted syscall out of the
// saved ucontext, run the interposer, stage the (possibly modified) call
// — or the emulated result — for the stub.
func (h *sigsysHandler) enter(hc *kernel.HcallCtx) error {
	t := hc.Task
	ucAddr, sig, ok := t.CurrentSigFrame()
	if !ok || sig != kernel.SIGSYS {
		return fmt.Errorf("interpose: SIGSYS handler entered outside SIGSYS")
	}
	*h.hits++
	stack := Pending(t, h)
	err := h.stage(stack.Push(t), ucAddr)
	if err != nil {
		stack.Pop()
	}
	return err
}

func (h *sigsysHandler) stage(c *Call, ucAddr uint64) error {
	t := c.Task
	// One read of the saved general purpose registers.
	var gregs [8 * isa.NumRegs]byte
	if err := t.ReadAt(ucAddr+kernel.UCGRegs, gregs[:]); err != nil {
		return err
	}
	c.Nr = int64(binary.LittleEndian.Uint64(gregs[8*isa.RAX:]))
	for i, r := range argRegs {
		c.Args[i] = binary.LittleEndian.Uint64(gregs[8*r:])
	}

	scratch := t.CPU.GSBase + GSSudScratch
	if h.ip.Enter(c) == Emulate {
		if err := t.WriteU64(scratch, uint64(c.Ret)); err != nil {
			return err
		}
		return t.WriteForce(t.CPU.GSBase+GSEmulate, []byte{1})
	}
	// One store of the number and the six arguments.
	var staged [8 + 8*len(argRegs)]byte
	binary.LittleEndian.PutUint64(staged[0:], uint64(c.Nr))
	for i, a := range c.Args {
		binary.LittleEndian.PutUint64(staged[8+8*i:], a)
	}
	return t.WriteAt(scratch, staged[:])
}

// exit is the post-syscall payload: finish the interposition and write
// the result into the saved context so the application resumes as if the
// syscall had returned normally.
func (h *sigsysHandler) exit(hc *kernel.HcallCtx) error {
	t := hc.Task
	ucAddr, _, ok := t.CurrentSigFrame()
	if !ok {
		return fmt.Errorf("interpose: SIGSYS handler exit outside signal frame")
	}
	stack := Pending(t, h)
	defer stack.Pop()
	c := stack.Top(t)
	ret, err := t.ReadU64(t.CPU.GSBase + GSSudScratch)
	if err != nil {
		return err
	}
	c.Ret = int64(ret)
	h.ip.Exit(c)
	return t.WriteU64(ucAddr+kernel.UCReg(int(isa.RAX)), uint64(c.Ret))
}
