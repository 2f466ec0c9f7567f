package kernel

import "testing"

func TestVforkBehavesLikeFork(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_vfork
		syscall
		cmpi rax, 0
		jz child
		mov64 rdi, -1
		mov64 rsi, 0x7fef0100
		mov64 rdx, 0
		mov64 rax, SYS_wait4
		syscall
		mov64 rsi, 0x7fef0100
		load32 rdi, [rsi]
		mov64 rax, SYS_exit
		syscall
	child:
		mov64 rdi, 44
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != 44 {
		t.Errorf("exit = %d, want child's 44", task.ExitCode)
	}
}

func TestWait4NoChildrenECHILD(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rdi, -1
		mov64 rsi, 0
		mov64 rdx, 0
		mov64 rax, SYS_wait4
		syscall
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != -ECHILD {
		t.Errorf("exit = %d, want -ECHILD", task.ExitCode)
	}
}

func TestExitGroupKillsAllThreads(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ CLONE_VM 0x100
	.equ CLONE_THREAD 0x10000
	_start:
		; spawn a CLONE_VM|CLONE_THREAD sibling that spins forever
		mov64 rax, 9         ; mmap stack
		mov64 rdi, 0
		mov64 rsi, 8192
		mov64 rdx, 3
		mov64 r10, 0x20
		syscall
		mov rbx, rax
		addi rbx, 8192
		mov64 rax, SYS_clone
		mov64 rdi, CLONE_VM+CLONE_THREAD
		mov rsi, rbx
		syscall
		cmpi rax, 0
		jz spin
		; main thread: exit_group must take the spinner down too
		mov64 rdi, 3
		mov64 rax, SYS_exit_group
		syscall
	spin:
		jmp spin
	`)
	if err := k.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 3 {
		t.Errorf("exit = %d", task.ExitCode)
	}
	for _, other := range k.Tasks() {
		t.Errorf("task %d still alive after exit_group", other.ID)
	}
}
