package isa_test

import (
	"bytes"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/isa"
)

// FuzzDecode throws arbitrary bytes at the instruction decoder. The
// decoder is reachable from guest-controlled memory (the CPU fetches
// whatever RIP points at, and the JIT guest writes code at runtime), so
// it must never panic: every input either decodes to a well-formed Inst
// or returns an error. Every Inst it returns, the emitter must encode to
// bytes that decode to the same Inst and length, so each kind's encoder
// is checked against its decoder on arbitrary input; and its disassembly
// at an address must assemble there to the same Inst, so the printer is
// checked against the assembler.
func FuzzDecode(f *testing.F) {
	// fuzzPC is the address each decoded instruction is printed and
	// assembled at: low enough that a backward branch target wraps.
	const fuzzPC = 0x1000
	// Seed with one instance of every encoding shape the assembler emits.
	seeds := [][]byte{
		{},
		{0x00},
		(&isa.Enc{}).Syscall().Buf,
		(&isa.Enc{}).Sysenter().Buf,
		(&isa.Enc{}).CallReg(isa.RAX).Buf,
		(&isa.Enc{}).JmpReg(isa.R11).Buf,
		(&isa.Enc{}).Ret().Buf,
		(&isa.Enc{}).Hlt().Buf,
		(&isa.Enc{}).Trap().Buf,
		(&isa.Enc{}).Nop(7).Buf,
		(&isa.Enc{}).MovImm64(isa.RDI, -1).Buf,
		(&isa.Enc{}).MovImm32(isa.RSI, 1<<30).Buf,
		(&isa.Enc{}).MovReg(isa.RAX, isa.RBX).Buf,
		(&isa.Enc{}).Load(isa.RAX, isa.RSP, 8).Buf,
		(&isa.Enc{}).Store(isa.RSP, -8, isa.RAX).Buf,
		(&isa.Enc{}).AddImm(isa.RCX, 123).Buf,
		(&isa.Enc{}).CmpImm(isa.RDX, -4).Buf,
		(&isa.Enc{}).ShlImm(isa.R8, 3).Buf,
		// Truncation seeds: multi-byte opcodes cut mid-encoding.
		(&isa.Enc{}).MovImm64(isa.RDI, -1).Buf[:5],
		(&isa.Enc{}).Load(isa.RAX, isa.RSP, 8).Buf[:2],
		{byte(isa.OpPrefix0F)},
		{byte(isa.OpPrefixFF)},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		inst, err := isa.Decode(b)
		if err != nil {
			return
		}
		if inst.Len <= 0 || inst.Len > len(b) {
			t.Fatalf("Decode(% x) = %+v: Len out of range [1, %d]", b, inst, len(b))
		}
		// Decoding is a pure prefix property: the bytes beyond Len must
		// not have influenced the result.
		again, err := isa.Decode(b[:inst.Len])
		if err != nil {
			t.Fatalf("Decode(% x) ok but its own prefix fails: %v", b[:inst.Len], err)
		}
		if again != inst {
			t.Fatalf("Decode not prefix-stable: %+v vs %+v", inst, again)
		}
		re := (&isa.Enc{}).Emit(inst).Buf
		if back, err := isa.Decode(re); err != nil || back != inst || len(re) != inst.Len {
			t.Fatalf("Decode(% x) = %+v, but Emit gives % x, which decodes to %+v, %v",
				b[:inst.Len], inst, re, back, err)
		}
		src := inst.StringAt(fuzzPC)
		if p, err := asm.Assemble(src, fuzzPC); err != nil {
			t.Fatalf("Decode(% x) = %+v prints %q, which does not assemble: %v", b[:inst.Len], inst, src, err)
		} else if back, err := isa.Decode(p.Code); err != nil || back != inst || len(p.Code) != inst.Len {
			t.Fatalf("Decode(% x) = %+v prints %q, which assembles to % x: %+v, %v", b[:inst.Len], inst, src, p.Code, back, err)
		}
		// A truncated prefix must never decode to something longer than
		// itself (guards against Len bookkeeping drifting from reads).
		if inst.Len > 1 {
			short, err := isa.Decode(bytes.Clone(b[:inst.Len-1]))
			if err == nil && short.Len >= inst.Len {
				t.Fatalf("Decode(% x) claims Len %d beyond the %d-byte buffer",
					b[:inst.Len-1], short.Len, inst.Len-1)
			}
		}
	})
}
