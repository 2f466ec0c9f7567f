package core

import (
	"testing"

	"lazypoline/internal/kernel"
	"lazypoline/internal/trace"
)

// TestSignalsDuringSlowPathWindows: signals racing lazypoline's lazy
// rewriting. A tiny scheduler quantum preempts the runtime stubs at
// arbitrary instructions, and a forked child spams SIGUSR1 at the parent
// while the parent's syscall sites are still being lazily rewritten — so
// deliveries land in (or right after) the window between the SUD
// selector flip and the site rewrite. The slow path masks catchable
// signals for the remainder of its SIGSYS frame, so every delivery must
// go through the wrapped handler with interposition intact: all five
// signals counted, and the SA_RESTART'd wait4 interrupted and restarted
// transparently.
func TestSignalsDuringSlowPathWindows(t *testing.T) {
	costs := kernel.DefaultCostModel()
	costs.SchedQuantum = 25 // preempt inside the runtime stubs
	k := kernel.New(kernel.Config{Costs: costs})
	task := spawn(t, k, kernel.AsmPrelude+`
	.equ MARK 0x7fef0200
	_start:
		; sigaction(SIGUSR1, {handler, 0, SA_RESTART}, 0) — intercepted
		; and wrapped by lazypoline
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_getpid
		syscall
		mov64 rbx, 0x7fef0300
		store [rbx], rax
		mov64 rax, SYS_fork
		syscall
		cmpi rax, 0
		jz child
		; parent: wait for the child. Every SIGUSR1 interrupts the wait;
		; SA_RESTART re-executes it through the full interception path.
		mov64 rdi, -1
		mov64 rsi, 0
		mov64 rdx, 0
		mov64 rax, SYS_wait4
		syscall
		mov64 rbx, MARK
		load rdi, [rbx]          ; exit(delivered count), want 5
		mov64 rax, SYS_exit
		syscall
	child:
		mov64 rcx, 5
	killloop:
		push rcx
		mov64 rbx, 0x7fef0300
		load rdi, [rbx]
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		mov64 rax, SYS_sched_yield
		syscall
		pop rcx
		addi rcx, -1
		jnz killloop
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	handler:
		mov64 r8, MARK
		load r9, [r8]
		addi r9, 1
		store [r8], r9
		ret
	.align 8
	act:
		.quad handler, 0, 0x10000000
	`)
	rec := &trace.Recorder{}
	rt, err := Attach(k, task, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 5 {
		t.Fatalf("exit = %d, want 5 (one handler run per signal)", task.ExitCode)
	}
	if rt.Stats.WrappedSignals == 0 {
		t.Error("sigaction was not wrapped — handlers ran outside interposition")
	}
	if rt.Stats.SigreturnsRouted < 5 {
		t.Errorf("only %d sigreturns routed through the trampoline, want >= 5", rt.Stats.SigreturnsRouted)
	}
	// The waits and kills must all have been observed by the interposer —
	// nothing escaped through the selector-ALLOW windows.
	if !rec.Contains(kernel.SysWait4) || !rec.Contains(kernel.SysKill) {
		t.Error("interposer missed wait4/kill syscalls")
	}
}
