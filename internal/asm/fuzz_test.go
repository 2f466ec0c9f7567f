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

// FuzzAssemble: on any source text Assemble must not panic or hang, must
// allocate at most eight times MaxProgram plus 512 bytes per input byte,
// and must be a pure function of the text: assembling it twice gives
// identical bytes. The output buffer never passes MaxProgram, and its
// capacity grows by at least 1.25x a step, so all its steps together cost
// at most about six times that; a fill may allocate its zeros once more
// (under -race the compiler does not elide that temporary).
func FuzzAssemble(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	for _, src := range asm.ErrorSources() {
		f.Add(src)
	}
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
