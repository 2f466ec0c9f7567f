package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/loader"
)

func TestAssembleThenDisassemble(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.s")
	out := filepath.Join(dir, "prog.self")
	if err := os.WriteFile(src, []byte(`
_start:
	mov64 rax, SYS_getpid
	syscall
	mov rdi, rax
	mov64 rax, SYS_exit
	syscall
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := asmCmd([]string{"-o", out, src}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != guest.CodeBase {
		t.Errorf("entry = %#x", img.Entry)
	}
	if _, ok := img.Symbol("_start"); !ok {
		t.Error("_start symbol missing from image")
	}
	// Disassembly path must succeed on the produced image.
	if err := asmCmd([]string{"-d", out}, io.Discard); err != nil {
		t.Errorf("disassemble: %v", err)
	}
}

func TestRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.self")
	if err := os.WriteFile(bad, []byte("not an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := asmCmd([]string{"-d", bad}, io.Discard); err == nil {
		t.Error("garbage image accepted")
	}
}
