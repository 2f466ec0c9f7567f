package kernel

import (
	"testing"

	"lazypoline/internal/bpf"
)

// TestSeccompRunsBeforeSUD pins the Figure 1 entry-path ordering: a
// seccomp RET_ERRNO filter resolves the syscall before the SUD selector
// is ever consulted, so no SIGSYS fires even with the selector at BLOCK.
func TestSeccompRunsBeforeSUD(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ SEL 0x7fef0000
	_start:
		; enable SUD, selector = BLOCK
		mov64 rax, SYS_prctl
		mov64 rdi, 59
		mov64 rsi, 1
		mov64 rdx, 0
		mov64 r10, 0
		mov64 r8, SEL
		syscall
		mov64 rbx, SEL
		mov64 rcx, 1
		storeb [rbx], rcx
		; getpid: the seccomp filter returns -EPERM; SUD never fires
		; (a SIGSYS here would kill us — no handler is registered).
		mov64 rax, SYS_getpid
		syscall
		mov r13, rax
		; selector back to ALLOW so exit dispatches
		mov64 rbx, SEL
		mov64 rcx, 0
		storeb [rbx], rcx
		mov rdi, r13
		mov64 rax, SYS_exit
		syscall
	`)
	prog, err := bpf.ErrnoFor([]int32{SysGetpid}, EPERM)
	if err != nil {
		t.Fatal(err)
	}
	k.AttachSeccomp(task, prog)
	mustRun(t, k)
	if task.ExitCode != -EPERM {
		t.Errorf("exit = %d, want -EPERM (seccomp must resolve before SUD)", task.ExitCode)
	}
}

// TestCloneFilesSharesDescriptors: a CLONE_VM|CLONE_FILES thread opens a
// file; the parent can read through the same descriptor number.
func TestCloneFilesSharesDescriptors(t *testing.T) {
	k := New(Config{})
	if err := k.FS.WriteFile("/shared", []byte("Z"), 0o644); err != nil {
		t.Fatal(err)
	}
	task := buildTask(t, k, `
	.equ CLONE_VM 0x100
	.equ CLONE_FILES 0x400
	.equ CLONE_THREAD 0x10000
	.equ DONE 0x7fef0300
	_start:
		; child stack
		mov64 rax, 9
		mov64 rdi, 0
		mov64 rsi, 8192
		mov64 rdx, 3
		mov64 r10, 0x20
		syscall
		mov rbx, rax
		addi rbx, 8192
		mov64 rax, SYS_clone
		mov64 rdi, CLONE_VM+CLONE_FILES+CLONE_THREAD
		mov rsi, rbx
		syscall
		cmpi rax, 0
		jz child
	wait:
		mov64 rbx, DONE
		load rcx, [rbx]
		cmpi rcx, 0
		jz wait
		; rcx = the fd the child opened; read through it ourselves
		mov64 rax, SYS_read
		mov rdi, rcx
		mov64 rsi, 0x7fef0100
		mov64 rdx, 1
		syscall
		cmpi rax, 1
		jnz bad
		mov64 rbx, 0x7fef0100
		loadb rdi, [rbx]     ; 'Z'
		mov64 rax, SYS_exit_group
		syscall              ; takes the spinning thread down too
	bad:
		mov64 rdi, 1
		mov64 rax, SYS_exit_group
		syscall
	child:
		mov64 rax, SYS_open
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov64 rbx, DONE
		store [rbx], rax     ; publish the fd
	spinoff:
		jmp spinoff          ; keep the shared table alive; exit_group of
		                     ; the parent takes this thread down
	path:
		.ascii "/shared"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != 'Z' {
		t.Errorf("exit = %d, want 'Z' (fd table shared via CLONE_FILES)", task.ExitCode)
	}
}
