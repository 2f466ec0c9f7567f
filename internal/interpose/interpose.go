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
	"bytes"
	"encoding/binary"

	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
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
// and to Ret after are honoured by every mechanism. The mechanism owns
// the Call and reuses it for a later syscall: see Interposer.
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
func (c *Call) ReadMem(addr uint64, p []byte) error { return c.Task.ReadForce(addr, p) }

// WriteMem writes guest memory (e.g. to rewrite a path argument).
func (c *Call) WriteMem(addr uint64, p []byte) error { return c.Task.WriteForce(addr, p) }

// maxStringLen caps ReadString, terminator included.
const maxStringLen = 4096

// ReadString reads a NUL-terminated guest string (capped at 4096 bytes
// with its terminator), a chunk at a time. A chunk never crosses a page
// boundary, so a string that ends just before an unmapped page does not
// fault on it (the shape of kernel.readPath).
func (c *Call) ReadString(addr uint64) (string, bool) {
	var chunk [256]byte
	var long []byte // only for strings that outgrow one chunk
	for len(long) < maxStringLen {
		at := addr + uint64(len(long))
		n := min(len(chunk), maxStringLen-len(long), int(mem.PageSize-at%mem.PageSize))
		if err := c.Task.ReadForce(at, chunk[:n]); err != nil {
			return "", false
		}
		if i := bytes.IndexByte(chunk[:n], 0); i >= 0 {
			if long == nil {
				return string(chunk[:i]), true
			}
			return string(append(long, chunk[:i]...)), true
		}
		long = append(long, chunk[:n]...)
	}
	return "", false
}

// Interposer is the user-supplied syscall handler.
//
// The *Call handed to Enter is the one handed to the matching Exit, and
// it is valid only from Enter until that Exit returns: the mechanism
// recycles it for a later syscall of the task. An interposer that wants
// to remember a call copies the fields it needs.
type Interposer interface {
	// Enter runs before the syscall. Return Continue to execute it (with
	// any modifications to c.Nr/c.Args) or Emulate to skip it and use
	// c.Ret as the result.
	Enter(c *Call) Action
	// Exit runs after the syscall (or after emulation) with c.Ret set;
	// it may modify c.Ret.
	Exit(c *Call)
}

// Dummy is the paper's benchmark interposer: it executes every syscall
// unmodified. All performance numbers are measured with it.
type Dummy struct{}

// Enter implements Interposer.
func (Dummy) Enter(*Call) Action { return Continue }

// Exit implements Interposer.
func (Dummy) Exit(*Call) {}

var _ Interposer = Dummy{}

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

// CallStack is one task's stack of in-flight Calls under one mechanism.
// More than one is in flight when a signal handler makes syscalls while
// the interrupted syscall's Exit is still to come. The stack keeps the
// Calls it has handed out and reuses them, so a steady stream of
// syscalls allocates nothing.
type CallStack struct {
	calls []*Call // calls[:n] are in flight, calls[n:] free for reuse
	n     int
}

// Pending returns t's call stack under the mechanism identified by owner
// (the mechanism's own pointer), creating it on the task's first call.
// It is stored on the task (kernel.Task.Local): nothing of a task stays
// behind in the mechanism, whichever way the task dies.
func Pending(t *kernel.Task, owner any) *CallStack {
	if s, ok := t.Local(owner).(*CallStack); ok {
		return s
	}
	s := &CallStack{}
	t.SetLocal(owner, s)
	return s
}

// Push opens a new innermost call of t, zeroed but for Task.
func (s *CallStack) Push(t *kernel.Task) *Call {
	if s.n == len(s.calls) {
		s.calls = append(s.calls, new(Call))
	}
	c := s.calls[s.n]
	s.n++
	*c = Call{Task: t}
	return c
}

// Top returns t's innermost in-flight call. With none in flight — the
// stub context was resumed without a matching Enter, as in a clone child
// continuing past its parent's fork — it returns a synthetic call marked
// by Nr = -1.
func (s *CallStack) Top(t *kernel.Task) *Call {
	if s.n == 0 {
		return &Call{Task: t, Nr: -1}
	}
	return s.calls[s.n-1]
}

// Pop closes the innermost in-flight call, if there is one. The Call is
// reused by the next Push, so Pop comes after its last use.
func (s *CallStack) Pop() {
	if s.n > 0 {
		s.n--
	}
}

// Depth returns the number of calls in flight.
func (s *CallStack) Depth() int { return s.n }

// Saved-register layout of the generic entry stub. The stub pushes the 15
// non-RSP registers in this order (RAX first), so the LAST pushed (R15)
// is at [rsp+0] and RAX at [rsp+112]; the call-rax return address sits at
// [rsp+120].
var saveOrder = [15]isa.Reg{
	isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.RBP, isa.RSI, isa.RDI,
	isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.R15,
}

// savedRegOffsets is SavedRegOffset's answer for every register, built
// once from saveOrder: ReadCall looks up seven slots per interposed
// syscall.
var savedRegOffsets = func() (offs [isa.NumRegs]int64) {
	for r := range offs {
		offs[r] = -1 // RSP is not saved
	}
	for i, r := range saveOrder {
		offs[r] = int64(len(saveOrder)-1-i) * 8
	}
	return offs
}()

// SavedRegOffset returns the stack offset (from RSP inside the hcall) of
// a saved register, or -1 for one the stub does not save (RSP).
func SavedRegOffset(r isa.Reg) int64 {
	if int(r) >= len(savedRegOffsets) {
		return -1
	}
	return savedRegOffsets[r]
}

// SavedRetAddrOffset is the stack offset of the call-rax return address.
const SavedRetAddrOffset = int64(len(saveOrder)) * 8

// ReadSavedReg reads a saved register from the stub's save area.
func ReadSavedReg(t *kernel.Task, r isa.Reg) (uint64, error) {
	return t.ReadU64(t.CPU.Regs[isa.RSP] + uint64(SavedRegOffset(r)))
}

// WriteSavedReg writes a saved register in the stub's save area.
func WriteSavedReg(t *kernel.Task, r isa.Reg, v uint64) error {
	return t.WriteU64(t.CPU.Regs[isa.RSP]+uint64(SavedRegOffset(r)), v)
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

// ReadCall fills c's Nr and Args from the stub's save area of c.Task, with
// a single read of the span holding the seven registers.
func ReadCall(c *Call) error {
	var span [callSpanLen]byte
	if err := c.Task.ReadAt(c.Task.CPU.Regs[isa.RSP]+callSpanOff, span[:]); err != nil {
		return err
	}
	slot := func(r isa.Reg) uint64 {
		return binary.LittleEndian.Uint64(span[SavedRegOffset(r)-callSpanOff:])
	}
	c.Nr = int64(slot(isa.RAX))
	for i, r := range argRegs {
		c.Args[i] = slot(r)
	}
	return nil
}

// WriteCall stores into the save area the call registers of c that differ
// from before, the Call as ReadCall filled it — for an interposer that
// rewrote nothing, no store at all, so a read-only save area is no error
// for it (DESIGN.md §6).
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
