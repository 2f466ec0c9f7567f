// Package interpose defines the user-facing interposer API shared by
// every mechanism in this repository (ptrace, seccomp, SUD, zpoline,
// lazypoline), plus the guest-side plumbing they share: the per-task
// %gs-relative runtime region and the generic interposer entry stub.
//
// An Interposer is maximally expressive in the paper's sense: it runs
// with full access to the guest — it can read and rewrite syscall
// numbers, arguments, return values and arbitrary guest memory, and it
// can emulate syscalls outright. Mechanisms differ only in HOW control
// reaches the interposer and at what cost.
package interpose

import (
	"encoding/binary"

	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
)

// Action tells the mechanism what to do after Enter.
type Action uint8

// Actions.
const (
	// Continue executes the (possibly modified) syscall.
	Continue Action = iota + 1
	// Emulate skips the syscall; the Call's Ret is the result.
	Emulate
)

// Call is one interposed syscall. Mutations to Nr/Args before execution
// and to Ret after are honoured by every mechanism.
type Call struct {
	// Nr is the syscall number.
	Nr int64
	// Args are the six syscall arguments.
	Args [6]uint64
	// Ret is the return value; valid in Exit, or set it in Enter together
	// with returning Emulate.
	Ret int64
	// Task is the calling task; through it interposers may inspect guest
	// state (deep argument inspection — the expressiveness seccomp-bpf
	// lacks).
	Task *kernel.Task
}

// ReadMem reads guest memory (e.g. to inspect a path argument).
func (c *Call) ReadMem(addr uint64, p []byte) error { return c.Task.AS.ReadForce(addr, p) }

// WriteMem writes guest memory (e.g. to rewrite a path argument).
func (c *Call) WriteMem(addr uint64, p []byte) error { return c.Task.AS.WriteForce(addr, p) }

// ReadString reads a NUL-terminated guest string (capped at 4096 bytes).
func (c *Call) ReadString(addr uint64) (string, bool) {
	var out []byte
	var b [1]byte
	for len(out) < 4096 {
		if err := c.Task.AS.ReadForce(addr+uint64(len(out)), b[:]); err != nil {
			return "", false
		}
		if b[0] == 0 {
			return string(out), true
		}
		out = append(out, b[0])
	}
	return "", false
}

// Interposer is the user-supplied syscall handler.
type Interposer interface {
	// Enter runs before the syscall. Return Continue to execute it (with
	// any modifications to c.Nr/c.Args) or Emulate to skip it and use
	// c.Ret as the result.
	Enter(c *Call) Action
	// Exit runs after the syscall (or after emulation) with c.Ret set;
	// it may modify c.Ret.
	Exit(c *Call)
}

// ConcurrentSafe marks an Interposer whose Enter/Exit may run
// concurrently from parallel scheduling shards (DESIGN.md §15). An
// implementation returning true promises that its hooks touch only the
// call's own task state (registers, address space, gs region) — no
// shared counters, logs or cross-task reads. Interposers without the
// marker are serialised on the deterministic frontier before every
// hook, which is always correct but forfeits multi-core scaling.
type ConcurrentSafe interface {
	ConcurrentInterposer() bool
}

// Dummy is the paper's benchmark interposer: it executes every syscall
// unmodified. All performance numbers are measured with it.
type Dummy struct{}

// Enter implements Interposer.
func (Dummy) Enter(*Call) Action { return Continue }

// Exit implements Interposer.
func (Dummy) Exit(*Call) {}

// ConcurrentInterposer implements ConcurrentSafe: Dummy is stateless.
func (Dummy) ConcurrentInterposer() bool { return true }

var _ Interposer = Dummy{}
var _ ConcurrentSafe = Dummy{}

// FuncInterposer adapts plain functions.
type FuncInterposer struct {
	OnEnter func(c *Call) Action
	OnExit  func(c *Call)
}

// Enter implements Interposer.
func (f FuncInterposer) Enter(c *Call) Action {
	if f.OnEnter == nil {
		return Continue
	}
	return f.OnEnter(c)
}

// Exit implements Interposer.
func (f FuncInterposer) Exit(c *Call) {
	if f.OnExit != nil {
		f.OnExit(c)
	}
}

// The per-task gs region layout. One page, mapped RW, pointed to by the
// task's %gs base (arch_prctl(ARCH_SET_GS)). This is the "per-task,
// %gs-relative memory region" of §IV-B: the SUD selector byte, the
// emulate flag, the xstate save stack and the sigreturn stack all live
// here, so threads sharing an address space (CLONE_VM) still get private
// copies.
const (
	// GSSelector is the SUD selector byte (offset 0).
	GSSelector = 0x00
	// GSEmulate is the emulate flag the Enter hcall sets to make the stub
	// skip the real syscall.
	GSEmulate = 0x01
	// GSSelf holds the absolute address of the gs region itself, so stubs
	// can compute absolute addresses of stack slots.
	GSSelf = 0x08
	// GSXSaveTop is the xstate stack top offset (grows up by XStateSize).
	GSXSaveTop = 0x10
	// GSSigretTop is the sigreturn stack top offset (grows up by 16).
	GSSigretTop = 0x18
	// GSSigretStack is the sigreturn stack area: frames of
	// {saved selector qword, resume rip qword}.
	GSSigretStack = 0x40
	// GSSigretStackMax bounds sigreturn nesting.
	GSSigretStackMax = GSSigretStack + 16*16
	// GSXSaveStack is the xstate stack area (6 frames of 512 bytes).
	GSXSaveStack = 0x200
	// GSSudScratch is a 7-qword scratch area (nr + 6 args) used by the
	// typical-SUD baseline's in-handler syscall sequence.
	GSSudScratch = 0xE00
	// GSSize is the region size (one page).
	GSSize = 4096
)

// InitGSRegion writes the initial control words of a gs region at base
// into the task's address space.
func InitGSRegion(t *kernel.Task, base uint64) error {
	var buf [GSSigretStack]byte
	buf[GSSelector] = kernel.SyscallDispatchFilterAllow
	binary.LittleEndian.PutUint64(buf[GSSelf:], base)
	binary.LittleEndian.PutUint64(buf[GSXSaveTop:], GSXSaveStack)
	binary.LittleEndian.PutUint64(buf[GSSigretTop:], GSSigretStack)
	return t.AS.WriteForce(base, buf[:])
}

// Saved-register layout of the generic entry stub. The stub pushes the 15
// non-RSP registers in this order (RAX first), so the LAST pushed (R15)
// is at [rsp+0] and RAX at [rsp+112]; the call-rax return address sits at
// [rsp+120].
var saveOrder = [15]isa.Reg{
	isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.RBP, isa.RSI, isa.RDI,
	isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.R15,
}

// SavedRegOffset returns the stack offset (from RSP inside the hcall) of
// a saved register.
func SavedRegOffset(r isa.Reg) int64 {
	for i, sr := range saveOrder {
		if sr == r {
			return int64(len(saveOrder)-1-i) * 8
		}
	}
	return -1 // RSP is not saved
}

// SavedRetAddrOffset is the stack offset of the call-rax return address.
const SavedRetAddrOffset = int64(len(saveOrder)) * 8

// ReadSavedReg reads a saved register from the stub's save area.
func ReadSavedReg(t *kernel.Task, r isa.Reg) (uint64, error) {
	return t.AS.ReadU64(t.CPU.Regs[isa.RSP] + uint64(SavedRegOffset(r)))
}

// WriteSavedReg writes a saved register in the stub's save area.
func WriteSavedReg(t *kernel.Task, r isa.Reg, v uint64) error {
	return t.AS.WriteU64(t.CPU.Regs[isa.RSP]+uint64(SavedRegOffset(r)), v)
}

// argRegs are the syscall argument registers, in ABI order.
var argRegs = [6]isa.Reg{isa.RDI, isa.RSI, isa.RDX, isa.R10, isa.R8, isa.R9}

// The save slots of a Call's registers — RAX and argRegs — lie in one
// contiguous span of the save area, R10 (lowest) through RAX (highest),
// with R11/RBP/RBX/RCX slots in between that a Call does not carry.
const (
	callSpanOff = 40 // SavedRegOffset(isa.R10)
	callSpanLen = 80 // through SavedRegOffset(isa.RAX) + 8
)

// ReadCall extracts the interposed Call from the stub's save area with a
// single read of the span holding its seven registers.
func ReadCall(t *kernel.Task) (*Call, error) {
	var span [callSpanLen]byte
	if err := t.AS.ReadAt(t.CPU.Regs[isa.RSP]+callSpanOff, span[:]); err != nil {
		return nil, err
	}
	slot := func(r isa.Reg) uint64 {
		return binary.LittleEndian.Uint64(span[SavedRegOffset(r)-callSpanOff:])
	}
	c := &Call{Task: t, Nr: int64(slot(isa.RAX))}
	for i, r := range argRegs {
		c.Args[i] = slot(r)
	}
	return c, nil
}

// WriteCall stores into the save area the call registers of c that differ
// from before, the Call as ReadCall returned it — for an interposer that
// rewrote nothing, no store at all. Writing back an unchanged value would
// leave the same bytes but still cost a locked page walk and a page-
// generation bump, which drops the CPU's D-TLB handle on the stack page
// at every interposed syscall (DESIGN.md §18).
func WriteCall(t *kernel.Task, c, before *Call) error {
	if c.Nr != before.Nr {
		if err := WriteSavedReg(t, isa.RAX, uint64(c.Nr)); err != nil {
			return err
		}
	}
	for i, r := range argRegs {
		if c.Args[i] != before.Args[i] {
			if err := WriteSavedReg(t, r, c.Args[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
