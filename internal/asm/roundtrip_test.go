package asm

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lazypoline/internal/isa"
)

// TestDisassembleReassembleFixpoint: assemble a program, disassemble
// every instruction, and verify the emitter re-encodes each decoded
// instruction to the identical bytes (the codec is a bijection on the
// encoded subset).
func TestDisassembleReassembleFixpoint(t *testing.T) {
	p, err := Assemble(`
	_start:
		mov64 rax, 0x123456789
		mov32 rbx, 77
		mov rcx, rax
		load rdx, [rsp+8]
		store [rbp-16], rsi
		loadb r8, [rdi+1]
		storeb [r9+2], r10
		load32 r11, [r12+4]
		add rax, rbx
		sub rax, rbx
		mul rax, rbx
		and rax, rbx
		or rax, rbx
		xor rax, rbx
		addi rax, -5
		cmp rax, rbx
		cmpi rax, 3
		shli rax, 2
		shri rax, 1
		push rax
		pop rax
		lea r13, _start
		movq2x xmm1, rax
		movx2q rax, xmm1
		punpck xmm2
		movups_st [rax+0], xmm3
		movups_ld xmm4, [rbx+16]
		xorps xmm5, xmm5
		fld rax
		fst rbx
		rdcycle rcx
		gsload rax, 8
		gsstore 8, rax
		gsloadb rax, 1
		gsstoreb 1, rax
		gsstorebi 0, 1
		gspush 32
		gsaddi 16, -16
		gsmovb 0, 1
		gsmov 8, 16
		gsloadidx rax, [rbx+8]
		gsloadidxb rax, rbx
		xchg rax, rbx
		xsave rax
		xrstor rax
		wrpkru rax
		rdpkru rax
		hcall 3
		pause
		nop
		syscall
		sysenter
		call rax
		jmp rbx
		int3
		hlt
		ret
	`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	code := p.Code
	for off := 0; off < len(code); {
		in, err := isa.Decode(code[off:])
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		re := (&isa.Enc{}).Emit(in).Buf
		if len(re) != in.Len || !bytesEqual(re, code[off:off+in.Len]) {
			t.Errorf("at %d (%s): bytes % x re-encode to % x", off, in, code[off:off+in.Len], re)
		}
		off += in.Len
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRandomProgramsAssembleDeterministically generates random but valid
// programs and checks assembly is a pure function of the source.
func TestRandomProgramsAssembleDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	regs := []string{"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r13"}
	for trial := 0; trial < 50; trial++ {
		var b strings.Builder
		b.WriteString("_start:\n")
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			r := regs[rng.Intn(len(regs))]
			s := regs[rng.Intn(len(regs))]
			switch rng.Intn(7) {
			case 0:
				fmt.Fprintf(&b, "\tmov64 %s, %d\n", r, rng.Int63n(1<<40)-1<<39)
			case 1:
				fmt.Fprintf(&b, "\tmov %s, %s\n", r, s)
			case 2:
				fmt.Fprintf(&b, "\tadd %s, %s\n", r, s)
			case 3:
				fmt.Fprintf(&b, "\taddi %s, %d\n", r, rng.Intn(1000)-500)
			case 4:
				fmt.Fprintf(&b, "\tpush %s\n\tpop %s\n", r, s)
			case 5:
				b.WriteString("\tnop\n")
			case 6:
				fmt.Fprintf(&b, "\tcmpi %s, %d\n", r, rng.Intn(100))
			}
		}
		b.WriteString("\thlt\n")
		src := b.String()
		p1, err := Assemble(src, 0x1000)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		p2, err := Assemble(src, 0x1000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytesEqual(p1.Code, p2.Code) {
			t.Fatalf("trial %d: non-deterministic output", trial)
		}
		// And the output always decodes end-to-end.
		for off := 0; off < len(p1.Code); {
			in, err := isa.Decode(p1.Code[off:])
			if err != nil {
				t.Fatalf("trial %d: decode at %d: %v", trial, off, err)
			}
			off += in.Len
		}
	}
}

// canonical writes a canonical statement of the form tmpl (a Lookup
// template) called name: one fixed operand per slot of its syntax. It
// returns the source, the Inst the source must decode to (bar Len and a
// target's displacement), and the Inst fields the syntax fills, sorted
// (A, B, I for Imm, J for Imm2).
func canonical(name string, tmpl isa.Inst) (src string, want isa.Inst, fields string, err error) {
	want = isa.Inst{Mnem: tmpl.Mnem, Op: tmpl.Op}
	var ops []string
	var f []byte
	for _, o := range tmpl.Syntax() {
		switch o {
		case isa.RegA:
			ops, f, want.A = append(ops, "r11"), append(f, 'A'), isa.R11
		case isa.RegB:
			ops, f, want.B = append(ops, "rsi"), append(f, 'B'), isa.RSI
		case isa.XRegA:
			ops, f, want.A = append(ops, "xmm11"), append(f, 'A'), 11
		case isa.XRegB:
			ops, f, want.B = append(ops, "xmm6"), append(f, 'B'), 6
		case isa.MemA:
			ops, f, want.A, want.Imm = append(ops, "[r11-8]"), append(f, 'A', 'I'), isa.R11, -8
		case isa.MemB:
			ops, f, want.B, want.Imm = append(ops, "[rsi-8]"), append(f, 'B', 'I'), isa.RSI, -8
		case isa.Imm:
			ops, f, want.Imm = append(ops, "100"), append(f, 'I'), 100
		case isa.Imm2:
			ops, f, want.Imm2 = append(ops, "7"), append(f, 'J'), 7
		case isa.Target:
			ops, f = append(ops, fmt.Sprint(canonicalTarget)), append(f, 'I')
		default:
			return "", want, "", fmt.Errorf("%s: unknown operand %d", name, o)
		}
	}
	slices.Sort(f)
	return strings.TrimSpace(name + " " + strings.Join(ops, ", ")), want, string(f), nil
}

// canonicalTarget is the branch and lea target canonical writes.
const canonicalTarget = 0x2000

// CanonicalSources hands the external test package one canonical
// statement per instruction form: every opcode's, and the prefix forms'
// (syscall and sysenter, the only names no opcode shares, and the
// register forms of call and jmp, which Lookup lists beside the rel32
// ones).
func CanonicalSources() []string {
	names := []string{"syscall", "sysenter"}
	for op := 0; op < 256; op++ {
		if name, _, ok := isa.Info(isa.Op(op)); ok {
			names = append(names, name)
		}
	}
	var srcs []string
	for _, name := range names {
		for _, form := range isa.Lookup(name) {
			if src, _, _, err := canonical(name, form); err == nil {
				srcs = append(srcs, src)
			}
		}
	}
	return srcs
}

// TestOpTableSyntax walks isa's opcode table. Each opcode's syntax must
// name exactly the Inst fields its kind encodes, and a canonical instance
// written from the syntax must assemble and decode back to the same
// opcode and fields; an entry without a syntax fails here.
func TestOpTableSyntax(t *testing.T) {
	encoded := map[isa.Kind]string{
		isa.KindNone: "", isa.KindReg: "A", isa.KindRegReg: "AB",
		isa.KindRegImm64: "AI", isa.KindRegImm32: "AI", isa.KindRegImm8: "AI",
		isa.KindRegRegD32: "ABI", isa.KindRel32: "I", isa.KindD32: "I", isa.KindImm32: "I",
		isa.KindImm8D32: "IJ", isa.KindD32Imm32: "IJ", isa.KindD32D32: "IJ",
	}
	const base = 0x1000
	for op := 0; op < 256; op++ {
		name, kind, ok := isa.Info(isa.Op(op))
		if !ok {
			continue
		}
		src, want, fields, err := canonical(name, isa.Inst{Mnem: isa.MOp, Op: isa.Op(op)})
		if err != nil {
			t.Error(err)
			continue
		}
		if fields != encoded[kind] {
			t.Errorf("%s: syntax fills fields %q, its kind encodes %q", name, fields, encoded[kind])
			continue
		}
		p, err := Assemble(src, base)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		got, err := isa.Decode(p.Code)
		if err != nil || got.Len != len(p.Code) {
			t.Errorf("%s: % x decodes to %+v, %v", src, p.Code, got, err)
			continue
		}
		want.Len = got.Len
		if slices.Contains(want.Syntax(), isa.Target) {
			want.Imm = canonicalTarget - base - int64(got.Len)
		}
		if got != want {
			t.Errorf("%s: decodes to %+v, want %+v", src, got, want)
		}
	}
}
