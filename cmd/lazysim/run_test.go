package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestRunBuiltins(t *testing.T) {
	for _, builtin := range []string{"jit", "microbench", "cat", "attack-jit", "attack-seq"} {
		for _, mech := range []string{"lazypoline", "zpoline", "sud", "ldpreload", "none"} {
			t.Run(builtin+"/"+mech, func(t *testing.T) {
				if err := runCmd([]string{"-mech", mech, "-builtin", builtin, "-trace=false", "-stats=false"}, io.Discard); err != nil {
					t.Errorf("run(%s under %s): %v", builtin, mech, err)
				}
			})
		}
	}
}

func TestRunAssemblyFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "hello.s")
	if err := os.WriteFile(src, []byte(`
_start:
	mov64 rax, SYS_write
	mov64 rdi, 1
	lea rsi, msg
	mov64 rdx, 6
	syscall
	mov64 rax, SYS_exit
	mov64 rdi, 0
	syscall
msg:
	.ascii "hello\n"
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCmd([]string{"-trace=false", "-stats=false", src}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-mech", "bogus-mech", "-builtin", "jit"},           // unknown mechanism
		{"-mech", "none", "-builtin", "bogus"},               // unknown builtin
		{"-mech", "none"},                                    // missing program
		{"-mech", "none", "a.s", "b.s"},                      // two programs
		{"-mech", "none", "-policy", "x", "-builtin", "cat"}, // unknown policy
	} {
		if err := runCmd(args, io.Discard); err == nil {
			t.Errorf("run %q accepted", args)
		}
	}
}
