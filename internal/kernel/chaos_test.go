package kernel

import "testing"

// These tests exercise the kernel half of the deterministic fault
// injection engine (internal/chaos + chaosinject.go): errno injection,
// short I/O, allocation failure, and the determinism contract.

// TestChaosZeroRateMatchesDisabled: constructing the kernel with a seed
// but rate 0 must be byte-identical to a chaos-free kernel — the hooks
// are nil-pointer checks, never an engine at rate 0.
func TestChaosZeroRateMatchesDisabled(t *testing.T) {
	src := `
	_start:
		mov64 rcx, 20
	loop:
		push rcx
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, msg
		mov64 rdx, 6
		syscall
		pop rcx
		addi rcx, -1
		jnz loop
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	msg:
		.ascii "hello\n"
	`
	run := func(cfg Config) (uint64, int, string) {
		k := New(cfg)
		task := buildTask(t, k, src)
		mustRun(t, k)
		return task.CPU.Cycles, task.ExitCode, string(task.ConsoleOut)
	}
	c0, e0, o0 := run(Config{})
	c1, e1, o1 := run(Config{ChaosSeed: 12345, ChaosRate: 0})
	if c0 != c1 || e0 != e1 || o0 != o1 {
		t.Errorf("zero-rate chaos differs from disabled: cycles %d vs %d, exit %d vs %d, console %q vs %q",
			c0, c1, e0, e1, o0, o1)
	}
}

// chaosRetryGuest writes one 64-byte message to the console through a
// libc-style hardened loop: -EINTR/-EAGAIN re-issue, short writes
// continue from the cursor. Exit 0 on full delivery, 9 on a hard error.
const chaosRetryGuest = `
	_start:
		lea r13, msg
		mov64 r8, 64
	wloop:
		mov64 rax, SYS_write
		mov64 rdi, 1
		mov rsi, r13
		mov rdx, r8
		syscall
		cmpi rax, 0
		jg wok
		cmpi rax, -4
		jz wloop
		cmpi rax, -11
		jz wloop
		mov64 rdi, 9
		mov64 rax, SYS_exit
		syscall
	wok:
		add r13, rax
		sub r8, rax
		jnz wloop
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	msg:
		.ascii "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
`

// TestChaosShortWritesStillComplete: at a high fault rate the hardened
// write loop must still deliver the message exactly, once.
func TestChaosShortWritesStillComplete(t *testing.T) {
	k := New(Config{ChaosSeed: 7, ChaosRate: 0.5})
	task := buildTask(t, k, chaosRetryGuest)
	mustRun(t, k)
	if task.ExitCode != 0 {
		t.Fatalf("exit = %d, want 0", task.ExitCode)
	}
	want := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if got := string(task.ConsoleOut); got != want {
		t.Errorf("console = %q, want the full 64-byte message exactly once", got)
	}
}

// TestChaosSameSeedReproducible: two kernels with the same (seed, rate)
// must produce identical runs — cycles included.
func TestChaosSameSeedReproducible(t *testing.T) {
	run := func() (uint64, int, string) {
		k := New(Config{ChaosSeed: 99, ChaosRate: 0.3})
		task := buildTask(t, k, chaosRetryGuest)
		mustRun(t, k)
		return task.CPU.Cycles, task.ExitCode, string(task.ConsoleOut)
	}
	c0, e0, o0 := run()
	c1, e1, o1 := run()
	if c0 != c1 || e0 != e1 || o0 != o1 {
		t.Errorf("same seed diverged: cycles %d vs %d, exit %d vs %d, console %q vs %q",
			c0, c1, e0, e1, o0, o1)
	}
}

// TestChaosNanosleepEINTR: nanosleep is in the eligible set and only
// ever receives EINTR (it has no EAGAIN semantics). At rate 1 the very
// first call must fail with -EINTR before any time is charged.
func TestChaosNanosleepEINTR(t *testing.T) {
	k := New(Config{ChaosSeed: 1, ChaosRate: 1})
	task := buildTask(t, k, `
	_start:
		mov64 rbx, 0x7fef0000
		mov64 rcx, 0
		store [rbx], rcx         ; tv_sec = 0
		mov64 rcx, 1000
		store [rbx+8], rcx       ; tv_nsec = 1000
		mov64 rax, SYS_nanosleep
		mov rdi, rbx
		mov64 rsi, 0
		syscall
		cmpi rax, -4
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
		t.Errorf("exit = %d, want 42 (nanosleep should have returned -EINTR)", task.ExitCode)
	}
}

// TestChaosAllocFailENOMEM: at rate 1 every guest allocation is denied
// through the mem.AllocGate, so mmap fails with -ENOMEM — while the
// host-side spawn allocations (gate exempts them) still succeed.
func TestChaosAllocFailENOMEM(t *testing.T) {
	k := New(Config{ChaosSeed: 3, ChaosRate: 1})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_mmap
		mov64 rdi, 0
		mov64 rsi, 4096
		mov64 rdx, 3             ; PROT_READ|PROT_WRITE
		mov64 r10, 0x22          ; MAP_PRIVATE|MAP_ANONYMOUS
		syscall
		cmpi rax, -12
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
		t.Errorf("exit = %d, want 42 (mmap should have returned -ENOMEM)", task.ExitCode)
	}
}
