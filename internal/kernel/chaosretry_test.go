package kernel

import (
	"testing"

	"lazypoline/internal/chaos"
)

// TestChaosRetryInjection pins the inject-on-retry contract: when a
// blocked syscall is re-dispatched after a wakeup, the retry consults
// the chaos engine again — every dispatch of an application syscall is
// one chaos event, whether it is the first attempt or a retry.
// Regression: the resBlocked retry closure used to call dispatch
// directly, so a syscall that blocked once became immune to injection
// for the rest of its life.
//
// The guest forks over a pipe: the parent's read finds the pipe empty
// and blocks (the child burns a long compute loop first, so the parent
// reaches the read under any scheduling), then the child's write wakes
// it. The seed is chosen so that the parent's read stream does NOT fire
// on the first attempt (the read must actually block) and DOES fire on
// the retry — the injected -EINTR/-EAGAIN is only observable if the
// retry path consults the engine.
func TestChaosRetryInjection(t *testing.T) {
	const rate = 0.5
	// The parent is the first spawned task (ID 1001); its read stream is
	// independent of every other (task, syscall) stream, so replaying
	// the two draws on a fresh engine predicts the kernel's decisions
	// exactly.
	stream := uint64(1001)<<16 | uint64(SysRead)
	var seed uint64
	for s := uint64(1); s < 10_000; s++ {
		eng := chaos.New(s, rate)
		first := eng.Fire(chaos.SiteSyscallErrno, stream)
		second := eng.Fire(chaos.SiteSyscallErrno, stream)
		if !first && second {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no seed with (miss, fire) on the first two draws — engine broken?")
	}

	k := New(Config{ChaosSeed: seed, ChaosRate: rate})
	task := buildTask(t, k, `
	_start:
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
		; parent: read blocks on the empty pipe; the wakeup retry gets
		; the injected errno
		mov64 rax, SYS_read
		mov rdi, r13
		mov64 rsi, 0x7fef0100
		mov64 rdx, 16
		syscall
		cmpi rax, -4            ; -EINTR
		jz injected
		cmpi rax, -11           ; -EAGAIN
		jz injected
		mov64 rdi, 9            ; data arrived: retry skipped the engine
		mov64 rax, SYS_exit
		syscall
	injected:
		mov64 rdi, 42
		mov64 rax, SYS_exit
		syscall
	child:
		; burn cycles so the parent blocks first even under injected
		; scheduler jitter
		mov64 rcx, 20000
	spin:
		addi rcx, -1
		jnz spin
		; hardened write: retry injected -EINTR/-EAGAIN until delivered
	wloop:
		mov64 rax, SYS_write
		mov rdi, r14
		lea rsi, msg
		mov64 rdx, 6
		syscall
		cmpi rax, 0
		jg wdone
		cmpi rax, -4
		jz wloop
		cmpi rax, -11
		jz wloop
	wdone:
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	msg:
		.ascii "hello\n"
	`)
	mustRun(t, k)
	if task.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (retried read must receive the injected errno)", task.ExitCode)
	}
}
