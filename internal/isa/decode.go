package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Mnemonic is the decoded operation of an instruction, independent of its
// byte encoding. The special x86-faithful encodings decode to their own
// mnemonics.
type Mnemonic uint8

// Decoded operations. Plain opcodes map 1:1; the prefixed encodings get
// dedicated values.
const (
	MSyscall Mnemonic = iota + 1
	MSysenter
	MCallReg // FF D0+r
	MJmpReg  // FF E0+r
	MOp      // any single-opcode instruction; see Inst.Op
)

// Inst is one decoded instruction.
type Inst struct {
	// Mnem distinguishes the special encodings from plain opcodes.
	Mnem Mnemonic
	// Op is the opcode for Mnem == MOp.
	Op Op
	// A and B are the register operands (meaning depends on the opcode).
	// For MCallReg/MJmpReg, A is the target register.
	A, B Reg
	// Imm is the immediate / displacement operand. For KindD32D32 and
	// KindD32Imm32 encodings, Imm is the first field and Imm2 the second.
	Imm  int64
	Imm2 int64
	// Len is the encoded length in bytes.
	Len int
}

// ErrBadOpcode is matched (errors.Is) by every error Decode returns for
// bytes that do not form a valid instruction.
var ErrBadOpcode = errors.New("isa: invalid opcode")

// ErrTruncated is returned by Decode when the buffer ends mid-instruction.
var ErrTruncated = errors.New("isa: truncated instruction")

// badOpcodeError names the offending byte(s): "isa: invalid opcode: 0f 3a"
// for a bad second byte after a prefix, "isa: invalid opcode: 00" for a bad
// first byte. Decode hands out pointers into badOpcodes, one prebuilt value
// per possible error, so rejecting a byte allocates nothing — a linear scan
// resynchronising over an image's zero padding rejects every byte of it.
type badOpcodeError struct {
	prefix byte // Byte0F, ByteFF, or 0 when the first byte itself is bad
	b      byte
}

func (e *badOpcodeError) Error() string {
	if e.prefix != 0 {
		return fmt.Sprintf("%v: %02x %02x", ErrBadOpcode, e.prefix, e.b)
	}
	return fmt.Sprintf("%v: %02x", ErrBadOpcode, e.b)
}

func (e *badOpcodeError) Unwrap() error { return ErrBadOpcode }

// badOpcodes rows: bad first byte, bad byte after 0F, bad byte after FF.
var badOpcodes = func() (t [3][256]badOpcodeError) {
	for row, prefix := range [3]byte{0, Byte0F, ByteFF} {
		for b := range t[row] {
			t[row][b] = badOpcodeError{prefix: prefix, b: byte(b)}
		}
	}
	return t
}()

// Decode decodes a single instruction from the beginning of b. It does
// not allocate, whatever it returns.
func Decode(b []byte) (Inst, error) {
	if len(b) == 0 {
		return Inst{}, ErrTruncated
	}
	op := Op(b[0])
	switch op {
	case OpPrefix0F:
		if len(b) < 2 {
			return Inst{}, ErrTruncated
		}
		switch b[1] {
		case ByteSyscall:
			return Inst{Mnem: MSyscall, Len: 2}, nil
		case ByteSysent:
			return Inst{Mnem: MSysenter, Len: 2}, nil
		default:
			return Inst{}, &badOpcodes[1][b[1]]
		}
	case OpPrefixFF:
		if len(b) < 2 {
			return Inst{}, ErrTruncated
		}
		m := b[1]
		switch {
		case m >= ByteCallReg && m < ByteCallReg+NumRegs:
			return Inst{Mnem: MCallReg, A: Reg(m - ByteCallReg), Len: 2}, nil
		case m >= ByteJmpReg && m < ByteJmpReg+NumRegs:
			return Inst{Mnem: MJmpReg, A: Reg(m - ByteJmpReg), Len: 2}, nil
		default:
			return Inst{}, &badOpcodes[2][m]
		}
	}

	kind := opTable[op].kind
	need := int(kindLen[kind])
	if need == 0 {
		return Inst{}, &badOpcodes[0][b[0]]
	}
	if len(b) < need {
		return Inst{}, ErrTruncated
	}
	in := Inst{Mnem: MOp, Op: op, Len: need}
	switch kind {
	case KindNone:
	case KindReg:
		in.A = Reg(b[1] & 0x0F)
	case KindRegReg:
		in.A = Reg(b[1] >> 4)
		in.B = Reg(b[1] & 0x0F)
	case KindRegImm64:
		in.A = Reg(b[1] & 0x0F)
		in.Imm = int64(binary.LittleEndian.Uint64(b[2:10]))
	case KindRegImm32:
		in.A = Reg(b[1] & 0x0F)
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[2:6])))
	case KindRegImm8:
		in.A = Reg(b[1] & 0x0F)
		in.Imm = int64(b[2])
	case KindRegRegD32:
		in.A = Reg(b[1] >> 4)
		in.B = Reg(b[1] & 0x0F)
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[2:6])))
	case KindRel32, KindD32, KindImm32:
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[1:5])))
	case KindImm8D32:
		in.Imm = int64(b[1]) // immediate byte
		in.Imm2 = int64(int32(binary.LittleEndian.Uint32(b[2:6])))
	case KindD32Imm32, KindD32D32:
		in.Imm = int64(int32(binary.LittleEndian.Uint32(b[1:5])))
		in.Imm2 = int64(int32(binary.LittleEndian.Uint32(b[5:9])))
	}
	return in, nil
}

// kindLen is the byte length of each operand encoding; 0 marks the zero
// Kind of a non-opcode.
var kindLen = [KindPrefixFF + 1]uint8{
	KindNone:      1,
	KindReg:       2,
	KindRegReg:    2,
	KindPrefix0F:  2,
	KindPrefixFF:  2,
	KindRegImm8:   3,
	KindRel32:     5,
	KindD32:       5,
	KindImm32:     5,
	KindRegImm32:  6,
	KindRegRegD32: 6,
	KindImm8D32:   6,
	KindD32Imm32:  9,
	KindD32D32:    9,
	KindRegImm64:  10,
}

// String renders the instruction in the assembler's syntax: the operands
// the table's syntax names, in its order and form. A branch or lea
// target, which only the instruction's address makes absolute, prints as
// its displacement from the instruction's end (+N); StringAt prints it as
// the address.
func (in Inst) String() string { return in.format(0, false) }

// StringAt renders the instruction at address pc as the assembler reads
// it back: assembling the text at pc gives in again.
func (in Inst) StringAt(pc uint64) string { return in.format(pc, true) }

func (in Inst) format(pc uint64, abs bool) string {
	info := in.info()
	if info.kind == 0 {
		return fmt.Sprintf("db 0x%02x", uint8(in.Op))
	}
	var b strings.Builder
	b.WriteString(info.name)
	sep := " "
	for _, o := range in.Syntax() {
		b.WriteString(sep)
		sep = ", "
		switch o {
		case RegA:
			b.WriteString(in.A.String())
		case RegB:
			b.WriteString(in.B.String())
		case XRegA:
			b.WriteString(XReg(in.A).String())
		case XRegB:
			b.WriteString(XReg(in.B).String())
		case MemA, MemB:
			r := in.A
			if o == MemB {
				r = in.B
			}
			b.WriteString("[" + r.String())
			if in.Imm != 0 {
				fmt.Fprintf(&b, "%+d", in.Imm)
			}
			b.WriteByte(']')
		case Imm:
			fmt.Fprintf(&b, "%d", in.Imm)
		case Imm2:
			fmt.Fprintf(&b, "%d", in.Imm2)
		case Target:
			if abs {
				fmt.Fprintf(&b, "%#x", pc+uint64(in.Len)+uint64(in.Imm))
			} else {
				fmt.Fprintf(&b, "%+d", in.Imm)
			}
		}
	}
	return b.String()
}

// IsSyscallBytes reports whether the two bytes at b[0:2] encode SYSCALL or
// SYSENTER. It is the predicate the rewriters use.
func IsSyscallBytes(b []byte) bool {
	return len(b) >= 2 && b[0] == Byte0F && (b[1] == ByteSyscall || b[1] == ByteSysent)
}
