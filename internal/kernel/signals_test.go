package kernel

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

func TestSigprocmaskDefersDelivery(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ MARK 0x7fef0000
	_start:
		; register a SIGUSR1 handler
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		; block SIGUSR1 (SIG_BLOCK, set = 1<<10)
		mov64 rbx, 0x7fef0200
		mov64 rcx, 1024
		store [rbx], rcx
		mov64 rax, SYS_rt_sigprocmask
		mov64 rdi, 0
		mov rsi, rbx
		mov64 rdx, 0
		syscall
		; raise it: must stay pending
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		; marker still zero here if delivery was deferred
		mov64 rbx, MARK
		load r13, [rbx]
		; unblock (SIG_UNBLOCK)
		mov64 rbx, 0x7fef0200
		mov64 rax, SYS_rt_sigprocmask
		mov64 rdi, 1
		mov rsi, rbx
		mov64 rdx, 0
		syscall
		; handler must have run by now
		mov64 rbx, MARK
		load r14, [rbx]
		; exit( r13*10 + r14 ): expect 0*10 + 5 = 5
		mov64 rax, 10
		mul r13, rax
		add r13, r14
		mov rdi, r13
		mov64 rax, SYS_exit
		syscall
	handler:
		mov64 r15, 0x7fef0000
		mov64 r14, 5
		store [r15], r14
		ret
	.align 8
	act:
		.quad handler, 0, 0
	`)
	mustRun(t, k)
	if task.ExitCode != 5 {
		t.Errorf("exit = %d, want 5 (deferred then delivered)", task.ExitCode)
	}
}

func TestSigIgnDropsSignal(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		; sigaction(SIGUSR1, {SIG_IGN}, 0)
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	.align 8
	act:
		.quad 1, 0, 0      ; SIG_IGN
	`)
	mustRun(t, k)
	if task.ExitCode != 0 {
		t.Errorf("exit = %d (ignored signal should be dropped)", task.ExitCode)
	}
}

func TestNestedSignals(t *testing.T) {
	// USR1's handler raises USR2 (different handler); both must run and
	// both sigreturns must unwind correctly.
	k := New(Config{})
	task := buildTask(t, k, `
	.equ MARK 0x7fef0000
	_start:
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act1
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 12
		lea rsi, act2
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		mov64 rbx, MARK
		load rdi, [rbx]
		mov64 rax, SYS_exit
		syscall
	handler1:
		; raise USR2 from inside USR1's handler
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rsi, 12
		mov64 rax, SYS_kill
		syscall
		; add 1 after the nested handler completed
		mov64 r14, MARK
		load r15, [r14]
		addi r15, 1
		store [r14], r15
		ret
	handler2:
		mov64 r14, MARK
		load r15, [r14]
		addi r15, 10
		store [r14], r15
		ret
	.align 8
	act1:
		.quad handler1, 0, 0
	act2:
		.quad handler2, 0, 0
	`)
	mustRun(t, k)
	// handler2 runs inside handler1: 10 then +1 = 11.
	if task.ExitCode != 11 {
		t.Errorf("exit = %d, want 11 (nested handlers)", task.ExitCode)
	}
}

func TestSigreturnWithoutFrameIsFatal(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_rt_sigreturn
		syscall
		hlt
	`)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSEGV {
		t.Errorf("exit = %d, want SIGSEGV", task.ExitCode)
	}
}

func TestHandlerMaskFromSigaction(t *testing.T) {
	// act.mask blocks SIGUSR2 during SIGUSR1's handler; a USR2 raised
	// inside stays pending until the handler returns.
	k := New(Config{})
	task := buildTask(t, k, `
	.equ MARK 0x7fef0000
	_start:
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act1
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 12
		lea rsi, act2
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		; after both handlers: expect "1 then 10" => final 11 with
		; handler1's increment applied FIRST (usr2 deferred).
		mov64 rbx, MARK
		load rdi, [rbx]
		mov64 rax, SYS_exit
		syscall
	handler1:
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rsi, 12
		mov64 rax, SYS_kill
		syscall
		; USR2 is masked: its handler has NOT run yet; marker still 0
		mov64 r14, MARK
		load r15, [r14]
		cmpi r15, 0
		jnz bad
		addi r15, 1
		store [r14], r15
		ret
	bad:
		mov64 rdi, 99
		mov64 rax, SYS_exit
		syscall
	handler2:
		mov64 r14, MARK
		load r15, [r14]
		mul r15, r15      ; 1 -> 1
		addi r15, 10      ; -> 11
		store [r14], r15
		ret
	.align 8
	act1:
		.quad handler1, 4096, 0   ; mask = 1<<12 (SIGUSR2)
	act2:
		.quad handler2, 0, 0
	`)
	mustRun(t, k)
	if task.ExitCode != 11 {
		t.Errorf("exit = %d, want 11 (USR2 deferred by handler mask)", task.ExitCode)
	}
}

// signalAt runs a guest that moves its stack pointer to rsp, raises
// SIGUSR1 at itself with r12 = 0x1234 and, if the handler runs, checks
// the frame from inside: the signal number in rdi and in the siginfo, r12
// in the saved context. The handler leaves the siginfo address at
// 0x7fef8000 and rewrites the saved rbx, so after sigreturn the guest
// exits with 77; a frame that reads wrong exits with 1, 2 or 3.
func signalAt(t *testing.T, rsp uint64) (*Kernel, *Task) {
	t.Helper()
	k := New(Config{})
	task := buildTask(t, k, fmt.Sprintf(`
	.equ SEEN 0x7fef8000
	_start:
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		mov64 rsp, %d
		mov64 r12, 0x1234
		mov64 rbx, 5
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		mov rdi, rbx             ; 77 if the handler's edit came back
		mov64 rax, SYS_exit
		syscall
	handler:
		mov64 r15, SEEN
		store [r15], rsi
		cmpi rdi, 10
		jnz bad1
		load r14, [rsi+%d]       ; siginfo.signo
		cmpi r14, 10
		jnz bad2
		load r14, [rdx+%d]       ; ucontext r12
		cmpi r14, 0x1234
		jnz bad3
		mov64 r14, 77
		store [rdx+%d], r14      ; ucontext rbx
		ret
	bad1:
		mov64 rdi, 1
		jmp die
	bad2:
		mov64 rdi, 2
		jmp die
	bad3:
		mov64 rdi, 3
	die:
		mov64 rax, SYS_exit
		syscall
	.align 8
	act:
		.quad handler, 0, 0
	`, rsp, SISigno, UCReg(int(isa.R12)), UCReg(int(isa.RBX))))
	mustRun(t, k)
	return k, task
}

// TestSignalFrameAcrossPages: the frame is stored in one piece, and a
// piece that crosses a page boundary arrives as intact as one that does
// not (it takes the locked path; the bytes are the same).
func TestSignalFrameAcrossPages(t *testing.T) {
	const boundary = 0x7fef0000 // inside the main stack
	for _, rsp := range []uint64{boundary + 0x800 + 0x400, boundary + 0x1a0} {
		_, task := signalAt(t, rsp)
		if task.ExitCode != 77 {
			t.Errorf("rsp %#x: exit = %d, want 77 (frame read and edited by the handler)", rsp, task.ExitCode)
		}
		var b [8]byte
		if err := task.AS.ReadAt(0x7fef8000, b[:]); err != nil {
			t.Fatal(err)
		}
		// The frame: return address, siginfo, ucontext.
		lo := binary.LittleEndian.Uint64(b[:]) - 8
		hi := lo + 8 + SigInfoSize + UContextSize - 1
		if crosses := lo>>mem.PageShift != hi>>mem.PageShift; crosses != (rsp < boundary+0x800) {
			t.Errorf("rsp %#x: frame [%#x, %#x] crosses a page: %v", rsp, lo, hi, crosses)
		}
	}
}

// TestSignalFrameOnUnmappedPageKills: a frame whose lowest page is not
// mapped cannot be delivered, and the task dies of SIGSEGV without its
// handler having run — whether or not the rest of the frame would fit.
func TestSignalFrameOnUnmappedPageKills(t *testing.T) {
	const stackBottom = stackTop - DefaultStackSize
	_, task := signalAt(t, stackBottom+0x1a0)
	if task.ExitCode != 128+SIGSEGV {
		t.Errorf("exit = %d, want death by SIGSEGV (%d)", task.ExitCode, 128+SIGSEGV)
	}
	var b [8]byte
	if err := task.AS.ReadAt(0x7fef8000, b[:]); err != nil || b != [8]byte{} {
		t.Errorf("the handler ran (saw siginfo at %x, %v)", b, err)
	}
}
