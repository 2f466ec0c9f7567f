package asm

import (
	"strings"
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// assembleRun assembles src at 0x1000, loads it, and runs to a halt.
func assembleRun(t *testing.T, src string) *cpu.CPU {
	t.Helper()
	p, err := Assemble(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	as := mem.NewAddressSpace()
	size := (uint64(len(p.Code)) + mem.PageSize) &^ (mem.PageSize - 1)
	if err := as.MapFixed(0x1000, size, mem.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(0x1000, p.Code); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFixed(0x100000, 4*mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(as)
	c.RIP = 0x1000
	c.Regs[isa.RSP] = 0x100000 + 4*mem.PageSize
	c.GSBase = 0x100000
	for i := 0; i < 100000; i++ {
		switch ev := c.Step(); ev {
		case cpu.EvNone:
		case cpu.EvHlt:
			return c
		default:
			t.Fatalf("unexpected event %v at rip %#x (err: %v)", ev, c.RIP, c.FaultErr)
		}
	}
	t.Fatal("program did not halt")
	return nil
}

func TestFibonacci(t *testing.T) {
	c := assembleRun(t, `
		; compute fib(10) iteratively into rax
		mov64 rax, 0
		mov64 rbx, 1
		mov64 rcx, 10
	loop:
		mov rdx, rax
		add rdx, rbx
		mov rax, rbx
		mov rbx, rdx
		addi rcx, -1
		jnz loop
		hlt
	`)
	if c.Regs[isa.RAX] != 55 {
		t.Errorf("fib(10) = %d, want 55", c.Regs[isa.RAX])
	}
}

func TestCallAndData(t *testing.T) {
	c := assembleRun(t, `
		.equ MAGIC 0x42
		mov64 rdi, MAGIC
		call double      # rax = rdi*2
		lea rsi, message
		loadb rbx, [rsi+1]   ; 'e'
		hlt
	double:
		mov rax, rdi
		add rax, rdi
		ret
	message:
		.ascii "hello"
		.byte 0
	`)
	if c.Regs[isa.RAX] != 0x84 {
		t.Errorf("double(0x42) = %#x, want 0x84", c.Regs[isa.RAX])
	}
	if c.Regs[isa.RBX] != 'e' {
		t.Errorf("loaded %q, want 'e'", rune(c.Regs[isa.RBX]))
	}
}

func TestForwardAndBackwardBranches(t *testing.T) {
	c := assembleRun(t, `
		mov64 rax, 0
		mov64 rcx, 5
	back:
		addi rax, 3
		addi rcx, -1
		jnz back
		jmp fwd
		mov64 rax, 999     ; skipped
	fwd:
		hlt
	`)
	if c.Regs[isa.RAX] != 15 {
		t.Errorf("rax = %d, want 15", c.Regs[isa.RAX])
	}
}

func TestQuadAndSymbols(t *testing.T) {
	p, err := Assemble(`
	start:
		hlt
	table:
		.quad start, 0xdeadbeef
	`, 0x4000)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := p.Symbol("table")
	if err != nil {
		t.Fatal(err)
	}
	if tbl != 0x4001 {
		t.Errorf("table at %#x, want 0x4001", tbl)
	}
	// First quad holds the absolute address of start.
	got := uint64(0)
	for i := 0; i < 8; i++ {
		got |= uint64(p.Code[1+i]) << (8 * i)
	}
	if got != 0x4000 {
		t.Errorf("table[0] = %#x, want 0x4000", got)
	}
	if _, err := p.Symbol("missing"); err == nil {
		t.Error("Symbol(missing) should fail")
	}
}

func TestAlignAndSpace(t *testing.T) {
	p, err := Assemble(`
		.byte 1
		.align 16
	aligned:
		.space 3
		.byte 9
	`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if addr := MustSymbol(p, "aligned"); addr != 16 {
		t.Errorf("aligned at %d, want 16", addr)
	}
	if p.Code[19] != 9 {
		t.Errorf("code[19] = %d, want 9", p.Code[19])
	}
}

func TestCallRegisterForm(t *testing.T) {
	p, err := Assemble("call rax", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0] != 0xFF || p.Code[1] != 0xD0 {
		t.Errorf("call rax = % x, want ff d0", p.Code)
	}
	p, err = Assemble("jmp r11", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0] != 0xFF || p.Code[1] != 0xE0+11 {
		t.Errorf("jmp r11 = % x", p.Code)
	}
}

func TestSyscallEncoding(t *testing.T) {
	p, err := Assemble("syscall\nsysenter", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x0F, 0x05, 0x0F, 0x34}
	if len(p.Code) != 4 {
		t.Fatalf("code = % x", p.Code)
	}
	for i := range want {
		if p.Code[i] != want[i] {
			t.Errorf("code[%d] = %#x, want %#x", i, p.Code[i], want[i])
		}
	}
}

func TestGsAndVectorOps(t *testing.T) {
	c := assembleRun(t, `
		gsstorebi 0, 7        ; selector-style byte store
		gsloadb rax, 0
		mov64 rbx, 0x1234
		movq2x xmm2, rbx
		punpck xmm2
		mov64 rdi, 0x100200
		movups_st [rdi], xmm2
		load rcx, [rdi+8]
		hlt
	`)
	if c.Regs[isa.RAX] != 7 {
		t.Errorf("gs byte = %d, want 7", c.Regs[isa.RAX])
	}
	if c.Regs[isa.RCX] != 0x1234 {
		t.Errorf("punpck high half = %#x, want 0x1234", c.Regs[isa.RCX])
	}
}

// errorCases are TestErrors' rows: a source and a substring of the error
// it must fail with. FuzzAssemble seeds its corpus with the sources.
var errorCases = []struct {
	name, src, wantSub string
}{
	{"unknown mnemonic", "frobnicate rax", "unknown mnemonic"},
	{"bad register", "mov64 rzz, 1", "bad register"},
	{"bad operand count", "mov64 rax", "wants 2 operands"},
	{"duplicate label", "a:\na:\n", "duplicate label"},
	{"undefined symbol", "jmp nowhere", "bad immediate"},
	{"bad align", ".align 3", "power of two"},
	{"bad mem operand", "load rax, rbx", "bad memory operand"},
	// Statements that would take the program past MaxProgram: the fill
	// is refused before it is allocated.
	{"space past the limit", ".space 0x10000000000", "byte limit"},
	{"align past the limit", ".byte 1\n.align 0x10000000000", "byte limit"},
	{"data past the limit", ".space 0xfffff\n.quad 1, 2", "byte limit"},
	// Operands that do not fit their field, one row per width.
	{"imm8 out of range", "shli rax, 300", "does not fit imm8"},
	{"imm8 store out of range", "gsstorebi 0, 256", "does not fit imm8"},
	{"imm32 out of range", "addi rax, 0x100000000", "does not fit imm32"},
	{"disp32 out of range", "load rax, [rbx+0x100000000]", "does not fit disp32"},
	{"rel32 out of range", "jmp 0x80000005", "does not fit rel32"},
}

// ErrorSources hands errorCases' sources to the external test package.
func ErrorSources() []string {
	var srcs []string
	for _, c := range errorCases {
		srcs = append(srcs, c.src)
	}
	return srcs
}

func TestErrors(t *testing.T) {
	for _, tt := range errorCases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src, 0)
			if err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("got %v, want error containing %q", err, tt.wantSub)
			}
		})
	}
}

// TestImmediateBounds: every field takes both readings of its width, and
// the neighbours of each bound are refused.
func TestImmediateBounds(t *testing.T) {
	for _, tt := range []struct {
		src string
		ok  bool
	}{
		{"shli rax, -128", true}, {"shli rax, 255", true},
		{"shli rax, -129", false}, {"shli rax, 256", false},
		{"addi rax, -0x80000000", true}, {"addi rax, 0xffffffff", true},
		{"addi rax, -0x80000001", false},
		{"mov64 rax, -1", true}, {"mov64 rax, 0xffffffffffffffff", true},
		{"gsaddi 0x80000000, -1", true}, {"gsaddi 0, 0x100000000", false},
		{"jmp 0x80000004", true}, {"jmp 0x80000005", false},
		{"lea rax, 0x80000005", true}, {"lea rax, 0x80000006", false},
	} {
		if _, err := Assemble(tt.src, 0); (err == nil) != tt.ok {
			t.Errorf("Assemble(%q) = %v, want ok=%v", tt.src, err, tt.ok)
		}
	}
}

func TestCommentsAndLabelsOnSameLine(t *testing.T) {
	c := assembleRun(t, `
	entry: mov64 rax, 1 ; trailing comment
		# full-line hash comment
		hlt
	`)
	if c.Regs[isa.RAX] != 1 {
		t.Errorf("rax = %d", c.Regs[isa.RAX])
	}
}

func TestLabelArithmetic(t *testing.T) {
	c := assembleRun(t, `
		lea rax, data+2
		loadb rbx, [rax]
		hlt
	data:
		.byte 10, 20, 30
	`)
	if c.Regs[isa.RBX] != 30 {
		t.Errorf("data+2 = %d, want 30", c.Regs[isa.RBX])
	}
}

func TestTwoPassStability(t *testing.T) {
	// The same source must assemble to identical bytes regardless of
	// forward/backward reference mix (pass-2 determinism).
	src := `
	a: jmp c
	b: .quad a, c
	c: jmp a
	`
	p1, err := Assemble(src, 0x7000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(src, 0x7000)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1.Code) != string(p2.Code) {
		t.Error("non-deterministic assembly")
	}
}
