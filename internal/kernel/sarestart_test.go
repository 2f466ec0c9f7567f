package kernel

import "testing"

// These tests pin the SA_RESTART vs EINTR semantics of blocking
// syscalls: a handled signal tears the task out of the wait, and the
// handler's SaRestart flag decides whether the syscall transparently
// re-executes or fails with -EINTR (Linux's ERESTARTSYS fixup).

// interruptedReadGuest blocks the parent in a pipe read of no data and
// has the child signal it. The sigaction flags word and the child's
// post-kill behaviour are spliced in per test.
func interruptedReadGuest(flags, childTail string) string {
	return `
	.equ MARK 0x7fef0200
	_start:
		; register the SIGUSR1 handler
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		; stash our pid for the child
		mov64 rax, SYS_getpid
		syscall
		mov64 rbx, 0x7fef0300
		store [rbx], rax
		; pipe(&fds)
		mov64 rax, SYS_pipe2
		mov64 rdi, 0x7fef0000
		mov64 rsi, 0
		syscall
		mov64 rbx, 0x7fef0000
		load32 r13, [rbx]        ; read end
		load32 r14, [rbx+4]      ; write end
		mov64 rax, SYS_fork
		syscall
		cmpi rax, 0
		jz child
		; parent: block reading the empty pipe (the write end stays open
		; in the parent, so no EOF can end the wait — only the signal)
		mov64 rax, SYS_read
		mov rdi, r13
		mov64 rsi, 0x7fef0100
		mov64 rdx, 8
		syscall
		mov r15, rax             ; interrupted read's result
		; reap the child
		mov64 rdi, -1
		mov64 rsi, 0
		mov64 rdx, 0
		mov64 rax, SYS_wait4
		syscall
		; exit(markers): handler marker must be 5, read result per test
		mov64 rbx, MARK
		load r14, [rbx]
		cmpi r14, 5
		jnz bad
		jmp check
	bad:
		mov64 rdi, 9
		mov64 rax, SYS_exit
		syscall
	child:
		; let the parent reach the blocking read first
		mov64 rcx, 10
	yloop:
		push rcx
		mov64 rax, SYS_sched_yield
		syscall
		pop rcx
		addi rcx, -1
		jnz yloop
		; kill(parent, SIGUSR1)
		mov64 rbx, 0x7fef0300
		load rdi, [rbx]
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
	` + childTail + `
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	handler:
		mov64 r8, MARK
		mov64 r9, 5
		store [r8], r9
		ret
	.align 8
	act:
		.quad handler, 0, ` + flags + `
	`
}

// TestBlockingReadEINTRWithoutSaRestart: no SA_RESTART — the read fails
// with -EINTR after the handler ran.
func TestBlockingReadEINTRWithoutSaRestart(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, interruptedReadGuest("0", "")+`
	check:
		cmpi r15, -4
		jnz bad
		mov64 rdi, 42
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (read should return -EINTR after the handler)", task.ExitCode)
	}
}

// TestBlockingReadRestartsWithSaRestart: with SA_RESTART the read
// re-executes after the handler and returns the bytes the child wrote
// post-signal — the interruption is invisible to the caller.
func TestBlockingReadRestartsWithSaRestart(t *testing.T) {
	k := New(Config{})
	childWrites := `
		; after the signal, feed the restarted read
		mov64 rax, SYS_write
		mov rdi, r14
		lea rsi, payload
		mov64 rdx, 8
		syscall
	`
	task := buildTask(t, k, interruptedReadGuest("0x10000000", childWrites)+`
	check:
		cmpi r15, 8
		jnz bad
		mov64 rdi, 42
		mov64 rax, SYS_exit
		syscall
	payload:
		.ascii "restart!"
	`)
	mustRun(t, k)
	if task.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (restarted read should return the 8 payload bytes)", task.ExitCode)
	}
}

// TestSigactionReportsFlags: rt_sigaction's oldact must round-trip the
// flags word, so a wrapper (lazypoline's signal interposition) can
// preserve SA_RESTART when re-registering handlers.
func TestSigactionReportsFlags(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		; register with SA_RESTART
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		; read it back
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		mov64 rsi, 0
		mov64 rdx, 0x7fef0000
		syscall
		mov64 rbx, 0x7fef0000
		load r13, [rbx+16]       ; oldact.flags
		mov64 rcx, 0x10000000
		cmp r13, rcx
		jnz bad
		mov64 rdi, 42
		mov64 rax, SYS_exit
		syscall
	bad:
		mov64 rdi, 9
		mov64 rax, SYS_exit
		syscall
	handler:
		ret
	.align 8
	act:
		.quad handler, 0, 0x10000000
	`)
	mustRun(t, k)
	if task.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (oldact should report SA_RESTART)", task.ExitCode)
	}
}
