package isa

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSpecialEncodings(t *testing.T) {
	tests := []struct {
		name string
		emit func(e *Enc) *Enc
		want []byte
	}{
		{"syscall", func(e *Enc) *Enc { return e.Syscall() }, []byte{0x0F, 0x05}},
		{"sysenter", func(e *Enc) *Enc { return e.Sysenter() }, []byte{0x0F, 0x34}},
		{"call rax", func(e *Enc) *Enc { return e.CallReg(RAX) }, []byte{0xFF, 0xD0}},
		{"call r11", func(e *Enc) *Enc { return e.CallReg(R11) }, []byte{0xFF, 0xDB}},
		{"jmp rax", func(e *Enc) *Enc { return e.JmpReg(RAX) }, []byte{0xFF, 0xE0}},
		{"nop", func(e *Enc) *Enc { return e.Nop(1) }, []byte{0x90}},
		{"ret", func(e *Enc) *Enc { return e.Ret() }, []byte{0xC3}},
		{"int3", func(e *Enc) *Enc { return e.Trap() }, []byte{0xCC}},
		{"hlt", func(e *Enc) *Enc { return e.Hlt() }, []byte{0xF4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var e Enc
			tt.emit(&e)
			if !bytes.Equal(e.Buf, tt.want) {
				t.Errorf("got % x, want % x", e.Buf, tt.want)
			}
		})
	}
}

func TestSyscallAndCallRaxSameLength(t *testing.T) {
	// The entire rewriting design rests on this invariant.
	if len(SyscallBytes()) != len(CallRaxBytes()) {
		t.Fatalf("syscall and call rax must have equal length")
	}
	if SyscallLen != 2 {
		t.Fatalf("SyscallLen = %d, want 2", SyscallLen)
	}
}

func TestDecodeSpecials(t *testing.T) {
	tests := []struct {
		b    []byte
		mnem Mnemonic
		a    Reg
	}{
		{[]byte{0x0F, 0x05}, MSyscall, 0},
		{[]byte{0x0F, 0x34}, MSysenter, 0},
		{[]byte{0xFF, 0xD0}, MCallReg, RAX},
		{[]byte{0xFF, 0xD7}, MCallReg, RDI},
		{[]byte{0xFF, 0xE2}, MJmpReg, RDX},
	}
	for _, tt := range tests {
		in, err := Decode(tt.b)
		if err != nil {
			t.Fatalf("Decode(% x): %v", tt.b, err)
		}
		if in.Mnem != tt.mnem || in.A != tt.a || in.Len != 2 {
			t.Errorf("Decode(% x) = %+v, want mnem=%d a=%v len=2", tt.b, in, tt.mnem, tt.a)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) should fail")
	}
	if _, err := Decode([]byte{0x0F}); err == nil {
		t.Error("Decode(truncated 0F) should fail")
	}
	if _, err := Decode([]byte{0x0F, 0x99}); err == nil {
		t.Error("Decode(0F 99) should fail")
	}
	if _, err := Decode([]byte{0xFF, 0x00}); err == nil {
		t.Error("Decode(FF 00) should fail")
	}
	if _, err := Decode([]byte{0x7E}); err == nil {
		t.Error("Decode(unknown op) should fail")
	}
	if _, err := Decode([]byte{byte(OpMovImm64), 0x00, 0x01}); err == nil {
		t.Error("Decode(truncated mov64) should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var e Enc
	e.MovImm64(RAX, 0x1122334455667788)
	e.MovImm32(RDI, 42)
	e.MovReg(RSI, RDX)
	e.Load(RBX, RSP, 16)
	e.Store(RBP, -8, R15)
	e.Add(RAX, RBX)
	e.Sub(RCX, RDX)
	e.AddImm(RSP, -32)
	e.Cmp(RAX, RBX)
	e.CmpImm(RDI, 100)
	e.Jmp(10)
	e.Jz(-5)
	e.Jnz(0)
	e.Call(1234)
	e.Push(RAX)
	e.Pop(RBX)
	e.Lea(RDI, 64)
	e.MovQ2X(3, R12)
	e.MovupsStore(R12, 0, 3)
	e.Punpck(0)
	e.GsLoad(RAX, 8)
	e.GsStoreBI(0, 1)
	e.GsPush(32)
	e.GsAddI(16, -16)
	e.GsMovB(0, 65)
	e.Xchg(RDI, RAX)
	e.GsLoadIdx(RBX, RAX, 8)
	e.Xsave(RBX)
	e.Xrstor(RBX)
	e.Hcall(7)
	e.Syscall()
	e.CallReg(RAX)
	e.Ret()

	got := disasmAll(t, e.Buf)
	want := []string{
		"mov64 rax, 1234605616436508552",
		"mov32 rdi, 42",
		"mov rsi, rdx",
		"load rbx, [rsp+16]",
		"store [rbp-8], r15",
		"add rax, rbx",
		"sub rcx, rdx",
		"addi rsp, -32",
		"cmp rax, rbx",
		"cmpi rdi, 100",
		"jmp +10",
		"jz -5",
		"jnz +0",
		"call +1234",
		"push rax",
		"pop rbx",
		"lea rdi, +64",
		"movq2x xmm3, r12",
		"movups_st [r12], xmm3",
		"punpck xmm0",
		"gsload rax, 8",
		"gsstorebi 0, 1",
		"gspush 32",
		"gsaddi 16, -16",
		"gsmovb 0, 65",
		"xchg rdi, rax",
		"gsloadidx rbx, [rax+8]",
		"xsave rbx",
		"xrstor rbx",
		"hcall 7",
		"syscall",
		"call rax",
		"ret",
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d instructions, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("insn %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func disasmAll(t *testing.T, code []byte) []string {
	t.Helper()
	var out []string
	for off := 0; off < len(code); {
		in, err := Decode(code[off:])
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		out = append(out, in.String())
		off += in.Len
	}
	return out
}

func TestImmediateMayContainSyscallBytes(t *testing.T) {
	// A 64-bit immediate containing the bytes 0F 05 must decode as part of
	// the mov64, not as a syscall — this is the hazard static rewriters
	// face and the lazy design avoids.
	var e Enc
	e.MovImm64(RAX, 0x0000_0000_0000_050F) // little-endian: 0F 05 00 ...
	in, err := Decode(e.Buf)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpMovImm64 || in.Len != 10 {
		t.Fatalf("got %v len %d, want mov64 len 10", in, in.Len)
	}
	// But a naive byte scan WOULD find a syscall pattern inside.
	found := false
	for i := 0; i+1 < len(e.Buf); i++ {
		if IsSyscallBytes(e.Buf[i:]) {
			found = true
		}
	}
	if !found {
		t.Fatal("expected raw byte scan to (mis)identify a syscall inside the immediate")
	}
}

func TestRegByName(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		r := Reg(i)
		got, ok := RegByName(r.String())
		if !ok || got != r {
			t.Errorf("RegByName(%q) = %v,%v", r.String(), got, ok)
		}
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName(bogus) should fail")
	}
}

func TestDecodeQuickNeverPanics(t *testing.T) {
	// Property: Decode never panics and, on success, reports a length
	// within the buffer.
	f := func(b []byte) bool {
		in, err := Decode(b)
		if err != nil {
			return true
		}
		return in.Len >= 1 && in.Len <= len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeLengthsQuick(t *testing.T) {
	// Property: for arbitrary register/immediate choices, encode→decode is
	// lossless for a representative subset of instructions.
	f := func(r uint8, v int64) bool {
		reg := Reg(r % NumRegs)
		var e Enc
		e.MovImm64(reg, v)
		in, err := Decode(e.Buf)
		if err != nil {
			return false
		}
		return in.Op == OpMovImm64 && in.A == reg && in.Imm == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	g := func(r uint8, v int32) bool {
		reg := Reg(r % NumRegs)
		var e Enc
		e.AddImm(reg, int64(v))
		in, err := Decode(e.Buf)
		if err != nil {
			return false
		}
		return in.Op == OpAddImm && in.A == reg && in.Imm == int64(v)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
