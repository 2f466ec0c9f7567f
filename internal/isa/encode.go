package isa

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Enc is a small instruction encoder used by code that emits machine code
// directly (the assembler, the trampoline builders, the tests). Methods
// append to Buf.
type Enc struct {
	Buf []byte
}

// Emit appends in's encoding. It is the inverse of Decode: it writes each
// field Decode reads, at the place in's kind puts it.
func (e *Enc) Emit(in Inst) *Enc {
	kind := in.info().kind
	n, size := len(e.Buf), int(kindLen[kind])
	e.Buf = slices.Grow(e.Buf, size)[:n+size]
	b := e.Buf[n:]
	switch in.Mnem {
	case MSyscall:
		b[0], b[1] = Byte0F, ByteSyscall
	case MSysenter:
		b[0], b[1] = Byte0F, ByteSysent
	case MCallReg:
		b[0], b[1] = ByteFF, ByteCallReg+byte(in.A)
	case MJmpReg:
		b[0], b[1] = ByteFF, ByteJmpReg+byte(in.A)
	default:
		b[0] = byte(in.Op)
	}
	le := binary.LittleEndian
	switch kind {
	case KindReg:
		b[1] = byte(in.A)
	case KindRegReg:
		b[1] = byte(in.A)<<4 | byte(in.B)
	case KindRegImm64:
		b[1] = byte(in.A)
		le.PutUint64(b[2:], uint64(in.Imm))
	case KindRegImm32:
		b[1] = byte(in.A)
		le.PutUint32(b[2:], uint32(in.Imm))
	case KindRegImm8:
		b[1], b[2] = byte(in.A), byte(in.Imm)
	case KindRegRegD32:
		b[1] = byte(in.A)<<4 | byte(in.B)
		le.PutUint32(b[2:], uint32(in.Imm))
	case KindRel32, KindD32, KindImm32:
		le.PutUint32(b[1:], uint32(in.Imm))
	case KindImm8D32:
		b[1] = byte(in.Imm)
		le.PutUint32(b[2:], uint32(in.Imm2))
	case KindD32Imm32, KindD32D32:
		le.PutUint32(b[1:], uint32(in.Imm))
		le.PutUint32(b[5:], uint32(in.Imm2))
	}
	return e
}

// Put stores one parsed operand of in's syntax: a register r, a value v
// (immediate, displacement or relative target), or for a memory operand
// both. It reports a value that does not fit the field in's kind gives
// it: imm8 takes -128..255 and imm32/disp32 -2^31..2^32-1, so a signed and
// a zero-extended reading are both legal; a rel32 must fit int32.
func (in *Inst) Put(o Operand, r Reg, v int64) error {
	lo, hi, field := int64(math.MinInt32), int64(math.MaxUint32), "imm32"
	switch o {
	case RegA, XRegA:
		in.A = r
		return nil
	case RegB, XRegB:
		in.B = r
		return nil
	case MemA:
		in.A, in.Imm, field = r, v, "disp32"
	case MemB:
		in.B, in.Imm, field = r, v, "disp32"
	case Target:
		in.Imm, hi, field = v, math.MaxInt32, "rel32"
	case Imm2:
		in.Imm2 = v
	case Imm:
		in.Imm = v
		switch in.info().kind {
		case KindRegImm64:
			return nil
		case KindRegImm8, KindImm8D32:
			lo, hi, field = -128, 255, "imm8"
		}
	}
	if v < lo || v > hi {
		return fmt.Errorf("%d does not fit %s", v, field)
	}
	return nil
}

// op emits one opcode's instruction.
func (e *Enc) op(o Op, a, b Reg, imm, imm2 int64) *Enc {
	return e.Emit(Inst{Mnem: MOp, Op: o, A: a, B: b, Imm: imm, Imm2: imm2})
}

// Len returns the current length of the emitted code.
func (e *Enc) Len() int { return len(e.Buf) }

// Syscall emits SYSCALL (0F 05).
func (e *Enc) Syscall() *Enc { return e.Emit(Inst{Mnem: MSyscall}) }

// Sysenter emits SYSENTER (0F 34).
func (e *Enc) Sysenter() *Enc { return e.Emit(Inst{Mnem: MSysenter}) }

// CallReg emits CALL reg (FF D0+r).
func (e *Enc) CallReg(r Reg) *Enc { return e.Emit(Inst{Mnem: MCallReg, A: r}) }

// JmpReg emits JMP reg (FF E0+r).
func (e *Enc) JmpReg(r Reg) *Enc { return e.Emit(Inst{Mnem: MJmpReg, A: r}) }

// Nop emits n NOPs. A NOP is one byte, which is what lets a sled be
// built byte by byte, so the rest repeat the byte Emit gives the first.
func (e *Enc) Nop(n int) *Enc {
	if n <= 0 {
		return e
	}
	e.op(OpNop, 0, 0, 0, 0)
	nop := e.Buf[len(e.Buf)-1]
	for i := 1; i < n; i++ {
		e.Buf = append(e.Buf, nop)
	}
	return e
}

// Ret emits RET.
func (e *Enc) Ret() *Enc { return e.op(OpRet, 0, 0, 0, 0) }

// Hlt emits HLT.
func (e *Enc) Hlt() *Enc { return e.op(OpHlt, 0, 0, 0, 0) }

// Trap emits INT3.
func (e *Enc) Trap() *Enc { return e.op(OpTrap, 0, 0, 0, 0) }

// MovImm64 emits mov64 reg, imm64.
func (e *Enc) MovImm64(r Reg, v int64) *Enc { return e.op(OpMovImm64, r, 0, v, 0) }

// MovImm32 emits mov32 reg, imm32 (zero-extended).
func (e *Enc) MovImm32(r Reg, v int64) *Enc { return e.op(OpMovImm32, r, 0, v, 0) }

// MovReg emits mov dst, src.
func (e *Enc) MovReg(dst, src Reg) *Enc { return e.op(OpMovReg, dst, src, 0, 0) }

// Load emits load dst, [src+disp].
func (e *Enc) Load(dst, src Reg, disp int64) *Enc { return e.op(OpLoad, dst, src, disp, 0) }

// Store emits store [dst+disp], src.
func (e *Enc) Store(dst Reg, disp int64, src Reg) *Enc { return e.op(OpStore, dst, src, disp, 0) }

// LoadB emits loadb dst, [src+disp].
func (e *Enc) LoadB(dst, src Reg, disp int64) *Enc { return e.op(OpLoadB, dst, src, disp, 0) }

// StoreB emits storeb [dst+disp], src.
func (e *Enc) StoreB(dst Reg, disp int64, src Reg) *Enc { return e.op(OpStoreB, dst, src, disp, 0) }

// Load32 emits load32 dst, [src+disp].
func (e *Enc) Load32(dst, src Reg, disp int64) *Enc { return e.op(OpLoad32, dst, src, disp, 0) }

// Add emits add dst, src.
func (e *Enc) Add(dst, src Reg) *Enc { return e.op(OpAdd, dst, src, 0, 0) }

// Sub emits sub dst, src.
func (e *Enc) Sub(dst, src Reg) *Enc { return e.op(OpSub, dst, src, 0, 0) }

// Mul emits mul dst, src.
func (e *Enc) Mul(dst, src Reg) *Enc { return e.op(OpMul, dst, src, 0, 0) }

// And emits and dst, src.
func (e *Enc) And(dst, src Reg) *Enc { return e.op(OpAnd, dst, src, 0, 0) }

// Or emits or dst, src.
func (e *Enc) Or(dst, src Reg) *Enc { return e.op(OpOr, dst, src, 0, 0) }

// Xor emits xor dst, src.
func (e *Enc) Xor(dst, src Reg) *Enc { return e.op(OpXor, dst, src, 0, 0) }

// AddImm emits addi reg, imm32.
func (e *Enc) AddImm(r Reg, v int64) *Enc { return e.op(OpAddImm, r, 0, v, 0) }

// Cmp emits cmp a, b.
func (e *Enc) Cmp(a, b Reg) *Enc { return e.op(OpCmp, a, b, 0, 0) }

// CmpImm emits cmpi reg, imm32.
func (e *Enc) CmpImm(r Reg, v int64) *Enc { return e.op(OpCmpImm, r, 0, v, 0) }

// ShlImm emits shli reg, imm8.
func (e *Enc) ShlImm(r Reg, v int64) *Enc { return e.op(OpShlImm, r, 0, v, 0) }

// ShrImm emits shri reg, imm8.
func (e *Enc) ShrImm(r Reg, v int64) *Enc { return e.op(OpShrImm, r, 0, v, 0) }

// Jmp emits jmp rel32 where rel is relative to the next instruction.
func (e *Enc) Jmp(rel int64) *Enc { return e.op(OpJmp, 0, 0, rel, 0) }

// Jz emits jz rel32.
func (e *Enc) Jz(rel int64) *Enc { return e.op(OpJz, 0, 0, rel, 0) }

// Jnz emits jnz rel32.
func (e *Enc) Jnz(rel int64) *Enc { return e.op(OpJnz, 0, 0, rel, 0) }

// Jl emits jl rel32 (signed less-than).
func (e *Enc) Jl(rel int64) *Enc { return e.op(OpJl, 0, 0, rel, 0) }

// Jg emits jg rel32 (signed greater-than).
func (e *Enc) Jg(rel int64) *Enc { return e.op(OpJg, 0, 0, rel, 0) }

// Jle emits jle rel32.
func (e *Enc) Jle(rel int64) *Enc { return e.op(OpJle, 0, 0, rel, 0) }

// Jge emits jge rel32.
func (e *Enc) Jge(rel int64) *Enc { return e.op(OpJge, 0, 0, rel, 0) }

// Call emits call rel32.
func (e *Enc) Call(rel int64) *Enc { return e.op(OpCall, 0, 0, rel, 0) }

// Push emits push reg.
func (e *Enc) Push(r Reg) *Enc { return e.op(OpPush, r, 0, 0, 0) }

// Pop emits pop reg.
func (e *Enc) Pop(r Reg) *Enc { return e.op(OpPop, r, 0, 0, 0) }

// Lea emits lea reg, [rip+disp32].
func (e *Enc) Lea(r Reg, disp int64) *Enc { return e.op(OpLea, r, 0, disp, 0) }

// MovQ2X emits movq2x xmm, reg.
func (e *Enc) MovQ2X(x XReg, r Reg) *Enc { return e.op(OpMovQ2X, Reg(x), r, 0, 0) }

// MovX2Q emits movx2q reg, xmm.
func (e *Enc) MovX2Q(r Reg, x XReg) *Enc { return e.op(OpMovX2Q, r, Reg(x), 0, 0) }

// Punpck emits punpck xmm.
func (e *Enc) Punpck(x XReg) *Enc { return e.op(OpPunpck, Reg(x), 0, 0, 0) }

// MovupsStore emits movups_st [reg+disp], xmm.
func (e *Enc) MovupsStore(r Reg, disp int64, x XReg) *Enc {
	return e.op(OpMovupsStore, Reg(x), r, disp, 0)
}

// MovupsLoad emits movups_ld xmm, [reg+disp].
func (e *Enc) MovupsLoad(x XReg, r Reg, disp int64) *Enc {
	return e.op(OpMovupsLoad, Reg(x), r, disp, 0)
}

// Xorps emits xorps dst, src.
func (e *Enc) Xorps(dst, src XReg) *Enc { return e.op(OpXorps, Reg(dst), Reg(src), 0, 0) }

// Fld emits fld reg.
func (e *Enc) Fld(r Reg) *Enc { return e.op(OpFld, r, 0, 0, 0) }

// Fst emits fst reg.
func (e *Enc) Fst(r Reg) *Enc { return e.op(OpFst, r, 0, 0, 0) }

// RdCycle emits rdcycle reg.
func (e *Enc) RdCycle(r Reg) *Enc { return e.op(OpRdCycle, r, 0, 0, 0) }

// GsLoad emits gsload reg, [gs:disp].
func (e *Enc) GsLoad(r Reg, disp int64) *Enc { return e.op(OpGsLoad, r, 0, disp, 0) }

// GsStore emits gsstore [gs:disp], reg.
func (e *Enc) GsStore(disp int64, r Reg) *Enc { return e.op(OpGsStore, r, 0, disp, 0) }

// GsLoadB emits gsloadb reg, [gs:disp].
func (e *Enc) GsLoadB(r Reg, disp int64) *Enc { return e.op(OpGsLoadB, r, 0, disp, 0) }

// GsStoreB emits gsstoreb [gs:disp], reg.
func (e *Enc) GsStoreB(disp int64, r Reg) *Enc { return e.op(OpGsStoreB, r, 0, disp, 0) }

// GsStoreBI emits gsstorebi [gs:disp], imm8.
func (e *Enc) GsStoreBI(disp int64, v byte) *Enc { return e.op(OpGsStoreBI, 0, 0, int64(v), disp) }

// GsPush emits gspush [gs:disp].
func (e *Enc) GsPush(disp int64) *Enc { return e.op(OpGsPush, 0, 0, disp, 0) }

// GsAddI emits gsaddi [gs:disp], imm32.
func (e *Enc) GsAddI(disp, v int64) *Enc { return e.op(OpGsAddI, 0, 0, disp, v) }

// GsMovB emits gsmovb [gs:dst], [gs:src].
func (e *Enc) GsMovB(dst, src int64) *Enc { return e.op(OpGsMovB, 0, 0, dst, src) }

// GsMov emits gsmov [gs:dst], [gs:src].
func (e *Enc) GsMov(dst, src int64) *Enc { return e.op(OpGsMov, 0, 0, dst, src) }

// GsLoadIdxB emits gsloadidxb dst, [gs:idxreg].
func (e *Enc) GsLoadIdxB(dst, idx Reg) *Enc { return e.op(OpGsLoadIdxB, dst, idx, 0, 0) }

// GsLoadIdx emits gsloadidx dst, [gs:idxreg+disp]. It does not set flags.
func (e *Enc) GsLoadIdx(dst, idx Reg, disp int64) *Enc {
	return e.op(OpGsLoadIdx, dst, idx, disp, 0)
}

// Xchg emits xchg [mem], val.
func (e *Enc) Xchg(mem, val Reg) *Enc { return e.op(OpXchg, mem, val, 0, 0) }

// Pause emits pause.
func (e *Enc) Pause() *Enc { return e.op(OpPause, 0, 0, 0, 0) }

// Xsave emits xsave [reg] — save extended state to the address in reg.
func (e *Enc) Xsave(r Reg) *Enc { return e.op(OpXsave, r, 0, 0, 0) }

// Xrstor emits xrstor [reg] — restore extended state from the address in reg.
func (e *Enc) Xrstor(r Reg) *Enc { return e.op(OpXrstor, r, 0, 0, 0) }

// Wrpkru emits wrpkru reg.
func (e *Enc) Wrpkru(r Reg) *Enc { return e.op(OpWrpkru, r, 0, 0, 0) }

// Rdpkru emits rdpkru reg.
func (e *Enc) Rdpkru(r Reg) *Enc { return e.op(OpRdpkru, r, 0, 0, 0) }

// Hcall emits hcall id.
func (e *Enc) Hcall(id int64) *Enc { return e.op(OpHcall, 0, 0, id, 0) }
