package kernel

import "testing"

// TestPipeAcrossFork: the classic pipe pattern — fork, child writes and
// exits, parent reads until EOF. EOF only arrives once BOTH write-end
// references (parent's and child's) are closed, which exercises the
// file-description refcounting.
func TestPipeAcrossFork(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		; pipe2(&fds, 0)
		mov64 rax, SYS_pipe2
		mov64 rdi, 0x7fef0000
		mov64 rsi, 0
		syscall
		mov64 rbx, 0x7fef0000
		load32 r13, [rbx]       ; read fd
		load32 r14, [rbx+4]     ; write fd
		mov64 rax, SYS_fork
		syscall
		cmpi rax, 0
		jz child
		; parent: close write end, read until EOF
		mov64 rax, SYS_close
		mov rdi, r14
		syscall
		mov64 r15, 0            ; total
	rdloop:
		mov64 rax, SYS_read
		mov rdi, r13
		mov64 rsi, 0x7fef0100
		mov64 rdx, 16
		syscall
		cmpi rax, 0
		jle eof
		add r15, rax
		jmp rdloop
	eof:
		; reap the child, exit with total bytes
		mov64 rdi, -1
		mov64 rsi, 0
		mov64 rdx, 0
		mov64 rax, SYS_wait4
		syscall
		mov rdi, r15
		mov64 rax, SYS_exit
		syscall
	child:
		; close read end, write a message twice, exit (implicitly closing
		; the write end -> parent sees EOF)
		mov64 rax, SYS_close
		mov rdi, r13
		syscall
		mov64 rax, SYS_write
		mov rdi, r14
		lea rsi, msg
		mov64 rdx, 11
		syscall
		mov64 rax, SYS_write
		mov rdi, r14
		lea rsi, msg
		mov64 rdx, 11
		syscall
		mov64 rax, SYS_close
		mov rdi, r14
		syscall
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	msg:
		.ascii "hello pipe\n"
	`)
	mustRun(t, k)
	if task.ExitCode != 22 {
		t.Errorf("parent read %d bytes, want 22", task.ExitCode)
	}
}

// TestDup2RedirectsStdout: dup2 a pipe over fd 1, write via the plain
// write(1, ...) path, and observe the bytes in the pipe instead of the
// console — shell-style redirection.
func TestDup2RedirectsStdout(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_pipe2
		mov64 rdi, 0x7fef0000
		mov64 rsi, 0
		syscall
		mov64 rbx, 0x7fef0000
		load32 r13, [rbx]       ; read end
		load32 r14, [rbx+4]     ; write end
		; dup2(w, 1)
		mov64 rax, SYS_dup2
		mov rdi, r14
		mov64 rsi, 1
		syscall
		; "stdout" now goes into the pipe
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, msg
		mov64 rdx, 9
		syscall
		; read it back
		mov64 rax, SYS_read
		mov rdi, r13
		mov64 rsi, 0x7fef0100
		mov64 rdx, 16
		syscall
		mov rdi, rax            ; bytes
		mov64 rax, SYS_exit
		syscall
	msg:
		.ascii "captured\n"
	`)
	mustRun(t, k)
	if task.ExitCode != 9 {
		t.Fatalf("read %d bytes from redirected stdout, want 9", task.ExitCode)
	}
	if len(task.ConsoleOut) != 0 {
		t.Errorf("console got %q despite redirection", task.ConsoleOut)
	}
	var buf [9]byte
	if err := task.AS.ReadForce(0x7fef0100, buf[:]); err != nil {
		t.Fatal(err)
	}
	if string(buf[:]) != "captured\n" {
		t.Errorf("pipe contents %q", buf)
	}
}
