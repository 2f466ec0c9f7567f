package kernel

import (
	"errors"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/loader"
)

// A failing interposition hook must surface as a guest-visible fault,
// never a host panic: a task the mechanism cannot interpose may not run
// uninstrumented, but the rest of the simulation must survive.

// TestCloneHookFailureIsGuestVisible: the clone hook rejecting the child
// kills the child with SIGSYS and fails the parent's clone with -EAGAIN.
func TestCloneHookFailureIsGuestVisible(t *testing.T) {
	k := New(Config{})
	hookCalls := 0
	k.CloneHook = func(parent, child *Task) error {
		hookCalls++
		return errors.New("cannot instrument child")
	}
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_fork
		syscall
		cmpi rax, -11            ; EAGAIN
		jnz bad
		mov64 rdi, 42
		mov64 rax, SYS_exit
		syscall
	bad:
		mov64 rdi, 9
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (fork should fail with -EAGAIN)", task.ExitCode)
	}
	if hookCalls != 1 {
		t.Errorf("clone hook ran %d times, want 1", hookCalls)
	}
	for _, other := range k.Tasks() {
		if other != task && other.Alive() {
			t.Errorf("rejected child %d is still alive", other.ID)
		}
	}
}

// TestExecveHookFailureDeliversSIGSYS: past execve's point of no return
// the old image is gone, so a failing hook cannot produce an errno — the
// task dies of a forced SIGSYS instead.
func TestExecveHookFailureDeliversSIGSYS(t *testing.T) {
	k := New(Config{})
	k.ExecveHook = func(t *Task) error { return errors.New("cannot instrument image") }

	p, err := asm.Assemble(`
	_start:
		mov64 rax, 60
		mov64 rdi, 0
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

	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_execve
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov64 rdi, 7             ; execve returned: hook fault was lost
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/bin/next"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSYS {
		t.Errorf("exit = %d, want %d (forced SIGSYS)", task.ExitCode, 128+SIGSYS)
	}
}

// TestExecveHookSuccessStillExecs: a passing hook must not disturb the
// normal execve path.
func TestExecveHookSuccessStillExecs(t *testing.T) {
	k := New(Config{})
	hookCalls := 0
	k.ExecveHook = func(t *Task) error { hookCalls++; return nil }

	p, err := asm.Assemble(`
	_start:
		mov64 rax, 60
		mov64 rdi, 5
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

	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_execve
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov64 rdi, 7
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/bin/next"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != 5 {
		t.Errorf("exit = %d, want 5 (the fresh image's exit code)", task.ExitCode)
	}
	if hookCalls != 1 {
		t.Errorf("execve hook ran %d times, want 1", hookCalls)
	}
}
