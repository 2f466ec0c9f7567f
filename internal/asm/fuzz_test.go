package asm_test

import (
	"bytes"
	"runtime"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/guest"
)

// corpus is the source of every kind of guest program: the coreutils on
// both libcs, the microbenchmark, the memory benchmark, the JIT, the two
// attack guests and both web servers.
func corpus(tb testing.TB) []string {
	var srcs []string
	add := func(p *guest.Program, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, p.Source)
	}
	for _, name := range guest.CoreutilNames {
		add(guest.Coreutil(name, guest.LibcUbuntu2004(false)))
		add(guest.Coreutil(name, guest.LibcClearLinux()))
	}
	add(guest.Microbench(39, 500))
	add(guest.MemBench(4))
	add(guest.JIT())
	add(guest.AttackJIT())
	add(guest.AttackSeq())
	for _, style := range []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd} {
		add(guest.WebServer(guest.WebServerConfig{Style: style, Port: 8080, Path: guest.StaticPath, Workers: 1}))
	}
	return srcs
}

func assembleAlloc(src string) (*asm.Program, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := asm.Assemble(src, guest.CodeBase)
	runtime.ReadMemStats(&after)
	return p, after.TotalAlloc - before.TotalAlloc, err
}

// labelledProgram is a short program with a forward and a backward
// label reference, a constant and data directives: the statements
// FuzzAssemble's single-instruction seeds do not reach.
const labelledProgram = `.equ N 3
_start:
	mov64 rcx, N
loop:	addi rcx, -1
	jnz loop
	lea rdi, msg
	jmp done
msg:	.ascii "hi\n"
	.align 8
done:	hlt
`

// FuzzAssemble: on any source text Assemble must not panic or hang, must
// allocate at most eight times MaxProgram plus 512 bytes per input byte,
// and must be a pure function of the text: assembling it twice gives
// identical bytes. The output buffer never passes MaxProgram, and its
// capacity grows by at least 1.25x a step, so all its steps together cost
// at most about six times that; a fill may allocate its zeros once more
// (under -race the compiler does not elide that temporary). The seeds are
// short — one canonical statement per instruction form, TestErrors' rows
// and one labelled program — because the fuzzer minimizes every new
// input it finds, and minimizing a kilobyte-long program takes most of a
// minute; TestCorpusAssemblesTwice holds the whole guest programs.
func FuzzAssemble(f *testing.F) {
	for _, src := range asm.CanonicalSources() {
		f.Add(src)
	}
	for _, src := range asm.ErrorSources() {
		f.Add(src)
	}
	f.Add(labelledProgram)
	f.Fuzz(func(t *testing.T, src string) {
		p, alloc, err := assembleAlloc(src)
		if limit := 8*asm.MaxProgram + 512*uint64(len(src)); alloc > limit {
			t.Fatalf("%d-byte source: Assemble allocated %d bytes (limit %d)", len(src), alloc, limit)
		}
		if err != nil {
			return
		}
		again, err := asm.Assemble(src, guest.CodeBase)
		if err != nil {
			t.Fatalf("second assembly fails: %v", err)
		}
		if !bytes.Equal(p.Code, again.Code) {
			t.Fatalf("two assemblies differ:\n% x\n% x", p.Code, again.Code)
		}
	})
}

// TestCorpusAssemblesTwice: every guest program's source assembles, and
// assembles again to identical bytes.
func TestCorpusAssemblesTwice(t *testing.T) {
	for _, src := range append(corpus(t), labelledProgram) {
		p, err := asm.Assemble(src, guest.CodeBase)
		if err != nil {
			t.Fatal(err)
		}
		again, err := asm.Assemble(src, guest.CodeBase)
		if err != nil || !bytes.Equal(p.Code, again.Code) {
			t.Fatalf("two assemblies differ (%v):\n% x\n% x", err, p.Code, again.Code)
		}
	}
}
