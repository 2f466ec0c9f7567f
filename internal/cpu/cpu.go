// Package cpu implements the simulated processor core: general purpose
// registers, flags, extended (vector/x87) state, %gs-relative addressing,
// a fetch-decode-execute loop with cycle accounting, and instrumentation
// hooks used by the Pin-like analysis tool.
//
// The CPU knows nothing about the kernel. Executing SYSCALL, SYSENTER,
// INT3, HLT or HCALL stops the step loop and reports an Event; the kernel
// (package kernel) decides what happens next. This mirrors the hardware/
// software split the paper's mechanisms manipulate: the 2-byte syscall
// instruction is a CPU artifact, everything after the trap is kernel
// policy.
package cpu

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// XStateSize is the size in bytes of the serialized extended state: 16 xmm
// registers of 16 bytes plus 8 x87 slots of 8 bytes plus the x87 top-of-
// stack word, rounded up to 512 bytes like the x86 XSAVE area.
const XStateSize = 512

// XState is the extended register state that the kernel does NOT preserve
// across syscalls and that signal delivery snapshots: the 16 vector
// registers and the x87-like register stack.
type XState struct {
	X   [isa.NumXRegs][16]byte
	X87 [8]uint64
	Top uint8
}

// Serialized layout: the vector registers, then the x87 slots, then the
// top-of-stack byte; the rest of the area is zero.
const (
	xstateX87Off = isa.NumXRegs * 16
	xstateTopOff = xstateX87Off + 8*8
)

// Marshal serializes the state into a XStateSize-byte buffer.
func (x *XState) Marshal(dst []byte) {
	dst = dst[:XStateSize]
	for i := range x.X {
		*(*[16]byte)(dst[16*i:]) = x.X[i]
	}
	for i, v := range x.X87 {
		binary.LittleEndian.PutUint64(dst[xstateX87Off+8*i:], v)
	}
	dst[xstateTopOff] = x.Top
	clear(dst[xstateTopOff+1:])
}

// Unmarshal deserializes the state from a XStateSize-byte buffer.
func (x *XState) Unmarshal(src []byte) {
	src = src[:XStateSize]
	for i := range x.X {
		x.X[i] = *(*[16]byte)(src[16*i:])
	}
	for i := range x.X87 {
		x.X87[i] = binary.LittleEndian.Uint64(src[xstateX87Off+8*i:])
	}
	x.Top = src[xstateTopOff]
}

// Event is the reason Step returned control to the kernel.
type Event uint8

// Step events.
const (
	// EvNone: the instruction retired normally.
	EvNone Event = iota
	// EvSyscall: a SYSCALL instruction executed. RIP points past it; RAX
	// holds the syscall number.
	EvSyscall
	// EvSysenter: a SYSENTER instruction executed (treated as EvSyscall by
	// the kernel, but distinguishable for tracing).
	EvSysenter
	// EvTrap: INT3.
	EvTrap
	// EvHlt: the task halted.
	EvHlt
	// EvHcall: a host-callback instruction; CPU.HcallID identifies the
	// registered handler.
	EvHcall
	// EvFault: a memory fault or illegal instruction; CPU.FaultErr holds
	// the cause and RIP still points at the faulting instruction.
	EvFault
)

func (e Event) String() string {
	switch e {
	case EvNone:
		return "none"
	case EvSyscall:
		return "syscall"
	case EvSysenter:
		return "sysenter"
	case EvTrap:
		return "trap"
	case EvHlt:
		return "hlt"
	case EvHcall:
		return "hcall"
	case EvFault:
		return "fault"
	}
	return "unknown"
}

// Costs holds the cycle prices the CPU itself charges. The kernel-side
// prices (syscall entry, signal delivery, ...) live in the kernel's cost
// model; these are the per-instruction prices.
type Costs struct {
	// Insn is the cost of an ordinary instruction.
	Insn uint64
	// Xsave and Xrstor are the extended-state save/restore instruction
	// costs; the paper's Figure 4 shows they dominate lazypoline's
	// overhead, so they are individually tunable.
	Xsave  uint64
	Xrstor uint64
	// NopsPerCycle models superscalar retirement of straight-line NOP
	// runs: a modern x86 core retires several NOPs per cycle, which is
	// what makes the zpoline nop sled cheap even for low syscall numbers
	// (call rax with rax=0 slides through the whole sled). Zero means 1.
	NopsPerCycle uint64
}

// DefaultCosts matches the calibration in the kernel cost model.
func DefaultCosts() Costs { return Costs{Insn: 1, Xsave: 85, Xrstor: 85, NopsPerCycle: 8} }

// InsnHook observes every retired instruction: its address and decoded
// form. Used by the Pin-like tool.
type InsnHook func(pc uint64, in isa.Inst)

// CPU is one simulated hardware thread.
type CPU struct {
	// Regs are the general purpose registers, indexed by isa.Reg.
	Regs [isa.NumRegs]uint64
	// RIP is the instruction pointer.
	RIP uint64
	// ZF and SF are the zero and sign flags.
	ZF, SF bool
	// GSBase is the %gs segment base (per-task, set via arch_prctl).
	GSBase uint64
	// FSBase is the %fs segment base (unused by our guests but part of
	// task state).
	FSBase uint64
	// PKRU is the protection-key rights register (MPK). The kernel
	// installs it into the address space when the task is scheduled;
	// WRPKRU updates both.
	PKRU uint32
	// X is the extended state.
	X XState
	// Cycles is the monotonically increasing cycle counter.
	Cycles uint64
	// AS is the address space instructions execute against.
	AS *mem.AddressSpace
	// Costs are the per-instruction cycle prices.
	Costs Costs
	// HcallID is valid after EvHcall.
	HcallID int64
	// FaultErr is valid after EvFault.
	FaultErr error
	// Hook, if non-nil, is called for every retired instruction.
	Hook InsnHook

	// FetchWalks counts instruction fetches that missed the decode cache
	// and walked guest memory; NopBatches counts completed NOP batches
	// (full batches plus flush-billed partials). Pure observability for
	// the telemetry layer — neither affects timing or behaviour.
	FetchWalks uint64
	NopBatches uint64

	// SuperblockRuns counts entries into StepBlock's tight loop that
	// retired at least one instruction; SuperblockInsts counts the
	// instructions retired there, bypassing per-instruction event
	// dispatch. Pure observability, like FetchWalks.
	SuperblockRuns  uint64
	SuperblockInsts uint64

	nopAccum uint64
	fetchBuf [16]byte
	// cache and tlb are the fast engine's decode cache and D-TLB; both
	// are nil on a reference CPU (NewExec).
	cache *decodeCache
	tlb   *dtlb
}

// ExecMode selects a CPU's execution engine. It is chosen once, when the
// CPU is built, and the two engines are semantically identical: events,
// faults, guest memory and cycle counts match instruction for instruction.
type ExecMode uint8

const (
	// ExecFast is the default engine: the decode cache, the software
	// D-TLB, chained blocks and the fused NOP-sled, countdown and
	// stack-run handlers.
	ExecFast ExecMode = iota
	// ExecReference is Step alone: every instruction is fetched and
	// decoded from guest memory, and every data access takes the address
	// space's checked path. It is the oracle the fast engine is checked
	// against.
	ExecReference
)

func (m ExecMode) String() string {
	if m == ExecReference {
		return "reference"
	}
	return "fast"
}

// New returns a CPU bound to an address space with default costs, running
// the fast engine.
func New(as *mem.AddressSpace) *CPU { return NewExec(as, ExecFast) }

// NewExec returns a CPU bound to an address space with default costs,
// running the given engine.
func NewExec(as *mem.AddressSpace, mode ExecMode) *CPU {
	c := &CPU{AS: as, Costs: DefaultCosts()}
	if mode == ExecFast {
		c.cache, c.tlb = newDecodeCache(as), newDTLB(as)
	}
	return c
}

// CloneState copies the register state (not the address space binding or
// hooks) from src. Used by clone/fork.
func (c *CPU) CloneState(src *CPU) {
	c.Regs = src.Regs
	c.RIP = src.RIP
	c.ZF, c.SF = src.ZF, src.SF
	c.GSBase, c.FSBase = src.GSBase, src.FSBase
	c.PKRU = src.PKRU
	c.X = src.X
}

// Flags packs the condition flags into a word (bit0=ZF, bit1=SF), the
// shape the kernel stores in signal frames and the syscall instruction
// leaves in R11.
func (c *CPU) Flags() uint64 {
	var f uint64
	if c.ZF {
		f |= 1
	}
	if c.SF {
		f |= 2
	}
	return f
}

// SetFlags unpacks a flag word.
func (c *CPU) SetFlags(f uint64) {
	c.ZF = f&1 != 0
	c.SF = f&2 != 0
}

// setArith stores an ALU result and updates flags.
func (c *CPU) setArith(dst isa.Reg, v uint64) {
	c.Regs[dst] = v
	c.ZF = v == 0
	c.SF = int64(v) < 0
}

func (c *CPU) cmpVals(a, b uint64) {
	d := a - b
	c.ZF = d == 0
	c.SF = int64(d) < 0
}

// push pushes v onto the stack.
func (c *CPU) push(v uint64) error {
	c.Regs[isa.RSP] -= 8
	return c.WriteU64(c.Regs[isa.RSP], v)
}

// pop pops the stack top.
func (c *CPU) pop() (uint64, error) {
	v, err := c.ReadU64(c.Regs[isa.RSP])
	if err != nil {
		return 0, err
	}
	c.Regs[isa.RSP] += 8
	return v, nil
}

// Step fetches, decodes and executes one instruction, charges its cycle
// cost, and reports the resulting event. On EvFault, RIP is left at the
// faulting instruction.
func (c *CPU) Step() Event {
	pc := c.RIP
	if cached := c.cachedInst(pc); cached != nil {
		return c.execInst(pc, cached)
	}
	return c.stepUncached(pc)
}

// stepUncached fetches, decodes and executes the instruction at pc when
// no valid cached block covers it (the reference engine, or bytes that do
// not decode into at least one instruction).
func (c *CPU) stepUncached(pc uint64) Event {
	// Uncached fetch: one page-map walk computes how many executable
	// bytes are available at pc (the tail of a mapping may hold fewer
	// than the 10-byte maximum instruction length).
	c.FetchWalks++
	n, ferr := c.AS.FetchExec(pc, c.fetchBuf[:maxInsnLen])
	if n == 0 {
		c.FlushNopBatch()
		c.FaultErr = ferr
		return EvFault
	}
	in, err := isa.Decode(c.fetchBuf[:n])
	if err != nil {
		c.FlushNopBatch()
		if errors.Is(err, isa.ErrTruncated) && ferr != nil {
			// The instruction runs off the end of executable memory:
			// the fetch fault belongs to the first unfetchable byte
			// (pc+n), not to pc and not to an illegal opcode.
			c.FaultErr = ferr
		} else {
			c.FaultErr = fmt.Errorf("cpu: at %#x: %w", pc, err)
		}
		return EvFault
	}
	return c.execInst(pc, &in)
}

// execInst retires one decoded instruction at pc: instrumentation hook,
// cycle and NOP-batch accounting, RIP advance, and the operation itself.
// in is read-only; it may point into a cached block.
func (c *CPU) execInst(pc uint64, in *isa.Inst) Event {
	if c.Hook != nil {
		c.Hook(pc, *in)
	}
	if in.Mnem == isa.MOp && in.Op == isa.OpNop && c.Costs.NopsPerCycle > 1 {
		// NOP runs retire several per cycle; charge one cycle per batch.
		c.nopAccum++
		if c.nopAccum >= c.Costs.NopsPerCycle {
			c.nopAccum = 0
			c.Cycles += c.Costs.Insn
			c.NopBatches++
		}
	} else {
		// Any non-NOP ends the run: a partial batch still occupies a
		// retirement cycle. Without this flush the residue leaked into
		// later, unrelated NOP runs.
		c.FlushNopBatch()
		c.Cycles += c.Costs.Insn
	}
	next := pc + uint64(in.Len)
	c.RIP = next

	switch in.Mnem {
	case isa.MSyscall:
		// The hardware syscall instruction clobbers RCX (return RIP) and
		// R11 (flags), exactly like x86-64. This is why applications may
		// only rely on the kernel preserving the *other* GPRs — and why
		// interposers must emulate precisely this clobbering behaviour.
		c.Regs[isa.RCX] = next
		c.Regs[isa.R11] = c.Flags()
		return EvSyscall
	case isa.MSysenter:
		c.Regs[isa.RCX] = next
		c.Regs[isa.R11] = c.Flags()
		return EvSysenter
	case isa.MCallReg:
		target := c.Regs[in.A]
		if err := c.push(next); err != nil {
			return c.fault(pc, err)
		}
		c.RIP = target
		return EvNone
	case isa.MJmpReg:
		c.RIP = c.Regs[in.A]
		return EvNone
	}

	switch in.Op {
	case isa.OpNop, isa.OpPause:
	case isa.OpHlt:
		return EvHlt
	case isa.OpTrap:
		return EvTrap
	case isa.OpHcall:
		c.HcallID = in.Imm
		return EvHcall
	case isa.OpRet:
		v, err := c.pop()
		if err != nil {
			return c.fault(pc, err)
		}
		c.RIP = v
	case isa.OpMovImm64:
		c.Regs[in.A] = uint64(in.Imm)
	case isa.OpMovImm32:
		c.Regs[in.A] = uint64(uint32(in.Imm))
	case isa.OpMovReg:
		c.Regs[in.A] = c.Regs[in.B]
	case isa.OpLoad:
		v, err := c.ReadU64(c.Regs[in.B] + uint64(in.Imm))
		if err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = v
	case isa.OpStore:
		if err := c.WriteU64(c.Regs[in.A]+uint64(in.Imm), c.Regs[in.B]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpLoadB:
		var b [1]byte
		if err := c.ReadAt(c.Regs[in.B]+uint64(in.Imm), b[:]); err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = uint64(b[0])
	case isa.OpStoreB:
		b := [1]byte{byte(c.Regs[in.B])}
		if err := c.WriteAt(c.Regs[in.A]+uint64(in.Imm), b[:]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpLoad32:
		var b [4]byte
		if err := c.ReadAt(c.Regs[in.B]+uint64(in.Imm), b[:]); err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = uint64(binary.LittleEndian.Uint32(b[:]))
	case isa.OpAdd:
		c.setArith(in.A, c.Regs[in.A]+c.Regs[in.B])
	case isa.OpSub:
		c.setArith(in.A, c.Regs[in.A]-c.Regs[in.B])
	case isa.OpMul:
		c.setArith(in.A, c.Regs[in.A]*c.Regs[in.B])
	case isa.OpAnd:
		c.setArith(in.A, c.Regs[in.A]&c.Regs[in.B])
	case isa.OpOr:
		c.setArith(in.A, c.Regs[in.A]|c.Regs[in.B])
	case isa.OpXor:
		c.setArith(in.A, c.Regs[in.A]^c.Regs[in.B])
	case isa.OpAddImm:
		c.setArith(in.A, c.Regs[in.A]+uint64(in.Imm))
	case isa.OpCmp:
		c.cmpVals(c.Regs[in.A], c.Regs[in.B])
	case isa.OpCmpImm:
		c.cmpVals(c.Regs[in.A], uint64(in.Imm))
	case isa.OpShlImm:
		c.setArith(in.A, c.Regs[in.A]<<uint(in.Imm))
	case isa.OpShrImm:
		c.setArith(in.A, c.Regs[in.A]>>uint(in.Imm))
	case isa.OpJmp:
		c.RIP = next + uint64(in.Imm)
	case isa.OpJz:
		if c.ZF {
			c.RIP = next + uint64(in.Imm)
		}
	case isa.OpJnz:
		if !c.ZF {
			c.RIP = next + uint64(in.Imm)
		}
	case isa.OpJl:
		if c.SF && !c.ZF {
			c.RIP = next + uint64(in.Imm)
		}
	case isa.OpJg:
		if !c.SF && !c.ZF {
			c.RIP = next + uint64(in.Imm)
		}
	case isa.OpJle:
		if c.SF || c.ZF {
			c.RIP = next + uint64(in.Imm)
		}
	case isa.OpJge:
		if !c.SF || c.ZF {
			c.RIP = next + uint64(in.Imm)
		}
	case isa.OpCall:
		if err := c.push(next); err != nil {
			return c.fault(pc, err)
		}
		c.RIP = next + uint64(in.Imm)
	case isa.OpPush:
		if err := c.push(c.Regs[in.A]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpPop:
		v, err := c.pop()
		if err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = v
	case isa.OpLea:
		c.Regs[in.A] = next + uint64(in.Imm)
	case isa.OpMovQ2X:
		x := isa.XReg(in.A)
		binary.LittleEndian.PutUint64(c.X.X[x][:8], c.Regs[in.B])
		for i := 8; i < 16; i++ {
			c.X.X[x][i] = 0
		}
	case isa.OpMovX2Q:
		c.Regs[in.A] = binary.LittleEndian.Uint64(c.X.X[isa.XReg(in.B)][:8])
	case isa.OpPunpck:
		x := isa.XReg(in.A)
		copy(c.X.X[x][8:], c.X.X[x][:8])
	case isa.OpMovupsStore:
		if err := c.WriteAt(c.Regs[in.B]+uint64(in.Imm), c.X.X[isa.XReg(in.A)][:]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpMovupsLoad:
		if err := c.ReadAt(c.Regs[in.B]+uint64(in.Imm), c.X.X[isa.XReg(in.A)][:]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpXorps:
		a, b := isa.XReg(in.A), isa.XReg(in.B)
		for i := 0; i < 16; i++ {
			c.X.X[a][i] ^= c.X.X[b][i]
		}
	case isa.OpFld:
		c.X.Top = (c.X.Top + 7) % 8
		c.X.X87[c.X.Top] = c.Regs[in.A]
	case isa.OpFst:
		c.Regs[in.A] = c.X.X87[c.X.Top]
		c.X.Top = (c.X.Top + 1) % 8
	case isa.OpRdCycle:
		c.Regs[in.A] = c.Cycles
	case isa.OpGsLoad:
		v, err := c.ReadU64(c.GSBase + uint64(in.Imm))
		if err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = v
	case isa.OpGsStore:
		if err := c.WriteU64(c.GSBase+uint64(in.Imm), c.Regs[in.A]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpGsLoadB:
		var b [1]byte
		if err := c.ReadAt(c.GSBase+uint64(in.Imm), b[:]); err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = uint64(b[0])
	case isa.OpGsStoreB:
		b := [1]byte{byte(c.Regs[in.A])}
		if err := c.WriteAt(c.GSBase+uint64(in.Imm), b[:]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpGsStoreBI:
		b := [1]byte{byte(in.Imm)}
		if err := c.WriteAt(c.GSBase+uint64(in.Imm2), b[:]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpGsPush:
		v, err := c.ReadU64(c.GSBase + uint64(in.Imm))
		if err != nil {
			return c.fault(pc, err)
		}
		if err := c.push(v); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpGsAddI:
		addr := c.GSBase + uint64(in.Imm)
		v, err := c.ReadU64(addr)
		if err != nil {
			return c.fault(pc, err)
		}
		if err := c.WriteU64(addr, v+uint64(in.Imm2)); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpGsMovB:
		var b [1]byte
		if err := c.ReadAt(c.GSBase+uint64(in.Imm2), b[:]); err != nil {
			return c.fault(pc, err)
		}
		if err := c.WriteAt(c.GSBase+uint64(in.Imm), b[:]); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpGsMov:
		v, err := c.ReadU64(c.GSBase + uint64(in.Imm2))
		if err != nil {
			return c.fault(pc, err)
		}
		if err := c.WriteU64(c.GSBase+uint64(in.Imm), v); err != nil {
			return c.fault(pc, err)
		}
	case isa.OpGsLoadIdxB:
		var b [1]byte
		if err := c.ReadAt(c.GSBase+c.Regs[in.B], b[:]); err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = uint64(b[0])
	case isa.OpXchg:
		addr := c.Regs[in.A]
		old, err := c.ReadU64(addr)
		if err != nil {
			return c.fault(pc, err)
		}
		if err := c.WriteU64(addr, c.Regs[in.B]); err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.B] = old
	case isa.OpGsLoadIdx:
		v, err := c.ReadU64(c.GSBase + c.Regs[in.B] + uint64(in.Imm))
		if err != nil {
			return c.fault(pc, err)
		}
		c.Regs[in.A] = v
	case isa.OpXsave:
		var buf [XStateSize]byte
		c.X.Marshal(buf[:])
		if err := c.WriteAt(c.Regs[in.A], buf[:]); err != nil {
			return c.fault(pc, err)
		}
		c.Cycles += c.Costs.Xsave
	case isa.OpWrpkru:
		c.PKRU = uint32(c.Regs[in.A])
		c.AS.SetActivePKRU(c.PKRU)
	case isa.OpRdpkru:
		c.Regs[in.A] = uint64(c.PKRU)
	case isa.OpXrstor:
		var buf [XStateSize]byte
		if err := c.ReadAt(c.Regs[in.A], buf[:]); err != nil {
			return c.fault(pc, err)
		}
		c.X.Unmarshal(buf[:])
		c.Cycles += c.Costs.Xrstor
	default:
		c.FaultErr = fmt.Errorf("cpu: at %#x: unimplemented opcode %#02x", pc, uint8(in.Op))
		return EvFault
	}
	return EvNone
}

// fault records a memory fault and rewinds RIP to the faulting
// instruction so the kernel's signal machinery can report (or fix) it.
func (c *CPU) fault(pc uint64, err error) Event {
	c.RIP = pc
	c.FaultErr = err
	return EvFault
}

// FlushNopBatch charges any partially accumulated NOP batch and resets
// the accumulator. The kernel calls it when execution is interrupted
// between instructions — quantum expiry (context switch) and signal
// delivery — so a half-filled batch is billed to the run it belongs to
// instead of leaking into another NOP run or another task.
func (c *CPU) FlushNopBatch() {
	if c.nopAccum > 0 {
		c.nopAccum = 0
		c.Cycles += c.Costs.Insn
		c.NopBatches++
	}
}
