package isa

import (
	"bytes"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the instruction decoder. The
// decoder is reachable from guest-controlled memory (the CPU fetches
// whatever RIP points at, and the JIT guest writes code at runtime), so
// it must never panic: every input either decodes to a well-formed Inst
// or returns an error. Every Inst it returns, the emitter must encode to
// bytes that decode to the same Inst and length, so each kind's encoder
// is checked against its decoder on arbitrary input.
func FuzzDecode(f *testing.F) {
	// Seed with one instance of every encoding shape the assembler emits.
	seeds := [][]byte{
		{},
		{0x00},
		(&Enc{}).Syscall().Buf,
		(&Enc{}).Sysenter().Buf,
		(&Enc{}).CallReg(RAX).Buf,
		(&Enc{}).JmpReg(R11).Buf,
		(&Enc{}).Ret().Buf,
		(&Enc{}).Hlt().Buf,
		(&Enc{}).Trap().Buf,
		(&Enc{}).Nop(7).Buf,
		(&Enc{}).MovImm64(RDI, -1).Buf,
		(&Enc{}).MovImm32(RSI, 1<<30).Buf,
		(&Enc{}).MovReg(RAX, RBX).Buf,
		(&Enc{}).Load(RAX, RSP, 8).Buf,
		(&Enc{}).Store(RSP, -8, RAX).Buf,
		(&Enc{}).AddImm(RCX, 123).Buf,
		(&Enc{}).CmpImm(RDX, -4).Buf,
		(&Enc{}).ShlImm(R8, 3).Buf,
		// Truncation seeds: multi-byte opcodes cut mid-encoding.
		(&Enc{}).MovImm64(RDI, -1).Buf[:5],
		(&Enc{}).Load(RAX, RSP, 8).Buf[:2],
		{byte(OpPrefix0F)},
		{byte(OpPrefixFF)},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		inst, err := Decode(b)
		if err != nil {
			return
		}
		if inst.Len <= 0 || inst.Len > len(b) {
			t.Fatalf("Decode(% x) = %+v: Len out of range [1, %d]", b, inst, len(b))
		}
		// Decoding is a pure prefix property: the bytes beyond Len must
		// not have influenced the result.
		again, err := Decode(b[:inst.Len])
		if err != nil {
			t.Fatalf("Decode(% x) ok but its own prefix fails: %v", b[:inst.Len], err)
		}
		if again != inst {
			t.Fatalf("Decode not prefix-stable: %+v vs %+v", inst, again)
		}
		re := (&Enc{}).Emit(inst).Buf
		if back, err := Decode(re); err != nil || back != inst || len(re) != inst.Len {
			t.Fatalf("Decode(% x) = %+v, but Emit gives % x, which decodes to %+v, %v",
				b[:inst.Len], inst, re, back, err)
		}
		// A truncated prefix must never decode to something longer than
		// itself (guards against Len bookkeeping drifting from reads).
		if inst.Len > 1 {
			short, err := Decode(bytes.Clone(b[:inst.Len-1]))
			if err == nil && short.Len >= inst.Len {
				t.Fatalf("Decode(% x) claims Len %d beyond the %d-byte buffer",
					b[:inst.Len-1], short.Len, inst.Len-1)
			}
		}
	})
}
