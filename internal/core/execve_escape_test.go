package core

import (
	"fmt"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/loader"
	"lazypoline/internal/trace"
	"lazypoline/internal/zpoline"
)

// TestExecveEscapesZpoline documents another exhaustiveness gap of pure
// load-time rewriting: after execve the fresh image contains pristine
// syscall instructions that were never scanned, so the application runs
// uninstrumented. lazypoline re-injects itself (execve clears SUD, the
// runtime re-enables it) and keeps seeing everything.
func TestExecveEscapesZpoline(t *testing.T) {
	nextImage := func(t *testing.T, k *kernel.Kernel) {
		t.Helper()
		p, err := asm.Assemble(`
		_start:
			mov64 rax, 39     ; getpid in the fresh image
			syscall
			mov64 rdi, 5
			mov64 rax, 60
			syscall
		`, 0x10000)
		if err != nil {
			t.Fatal(err)
		}
		img, err := loader.FromProgram(p, "_start")
		if err != nil {
			t.Fatal(err)
		}
		k.RegisterImage("/bin/next", img)
	}

	const execGuest = `
	_start:
		mov64 rax, 59
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov64 rdi, 1      ; exec failed
		mov64 rax, 60
		syscall
	path:
		.ascii "/bin/next"
		.byte 0
	`

	run := func(lazy bool) (*trace.Recorder, *kernel.Task) {
		k := kernel.New(kernel.Config{})
		nextImage(t, k)
		task := spawn(t, k, execGuest)
		rec := &trace.Recorder{}
		var err error
		if lazy {
			_, err = Attach(k, task, rec, Options{})
		} else {
			_, err = zpoline.Attach(k, task, rec, zpoline.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		return rec, task
	}

	zpRec, zpTask := run(false)
	if zpTask.ExitCode != 5 {
		t.Fatalf("zpoline run exited %d", zpTask.ExitCode)
	}
	if zpRec.Contains(kernel.SysGetpid) {
		t.Error("zpoline saw the post-execve getpid — it should have escaped")
	}

	lpRec, lpTask := run(true)
	if lpTask.ExitCode != 5 {
		t.Fatalf("lazypoline run exited %d", lpTask.ExitCode)
	}
	if !lpRec.Contains(kernel.SysGetpid) {
		t.Error("lazypoline missed the post-execve getpid")
	}
}

// TestFailedExecveReachesExit: an execve that fails returns to the stub
// like any other call, so the interposer's Exit must see it, with its
// errno, under both stub mechanisms; the exit code the guest gets back is
// the interposer's view too.
func TestFailedExecveReachesExit(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		k := kernel.New(kernel.Config{})
		task := spawn(t, k, kernel.AsmPrelude+`
		_start:
			mov64 rax, SYS_execve
			lea rdi, path
			mov64 rsi, 0
			mov64 rdx, 0
			syscall
			mov64 rdi, 0
			sub rdi, rax          ; exit(-ret)
			mov64 rax, SYS_exit
			syscall
		path:
			.ascii "/nope"
			.byte 0
		`)
		var exits []interpose.Call
		ip := interpose.FuncInterposer{
			OnExit: func(c *interpose.Call) { exits = append(exits, *c) },
		}
		var err error
		if lazy {
			_, err = Attach(k, task, ip, Options{})
		} else {
			_, err = zpoline.Attach(k, task, ip, zpoline.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if task.ExitCode != kernel.ENOENT {
			t.Errorf("lazy=%v: exit = %d, want ENOENT", lazy, task.ExitCode)
		}
		if len(exits) == 0 || exits[len(exits)-1].Nr != kernel.SysExecve || exits[len(exits)-1].Ret != -kernel.ENOENT {
			var got []string
			for _, c := range exits {
				got = append(got, fmt.Sprintf("%s=%d", kernel.SyscallName(c.Nr), c.Ret))
			}
			t.Errorf("lazy=%v: Exit saw %v, want execve=%d last", lazy, got, -kernel.ENOENT)
		}
	}
}
