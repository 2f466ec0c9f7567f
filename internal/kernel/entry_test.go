package kernel

import (
	"testing"

	"lazypoline/internal/bpf"
	"lazypoline/internal/isa"
)

// sudTestProgram returns a guest that enables SUD itself via prctl and
// then exercises the selector. Layout:
//
//	selector byte at 0x7fef0000 (stack scratch space)
//	SIGSYS handler writes the trapped syscall nr to 0x7fef0008 and
//	flips the selector to ALLOW before sigreturning (otherwise the
//	sigreturn inside the vdso stub would recurse — unless the vdso
//	range is allowlisted, which variant "ranged" does).
const sudSelector = 0x7fef0000
const sudResult = 0x7fef0008

func TestSUDSelectorBlockDeliversSIGSYS(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ SEL 0x7fef0000
	.equ RESULT 0x7fef0008
	_start:
		; register SIGSYS handler
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 31            ; SIGSYS
		lea rsi, act
		mov64 rdx, 0
		syscall
		; enable SUD: prctl(59, ON, 0, 0, &selector)
		mov64 rax, SYS_prctl
		mov64 rdi, 59
		mov64 rsi, 1
		mov64 rdx, 0
		mov64 r10, 0
		mov64 r8, SEL
		syscall
		; selector = BLOCK
		mov64 rbx, SEL
		mov64 rcx, 1
		storeb [rbx], rcx
		; this getpid must trap to the SIGSYS handler
		mov64 rax, SYS_getpid
		syscall
		; handler set selector to ALLOW, so this exit dispatches
		mov64 rbx, RESULT
		load rdi, [rbx]
		mov64 rax, SYS_exit
		syscall
	handler:
		; rsi = &siginfo; siginfo.nr at offset 16
		load r15, [rsi+16]
		mov64 r14, RESULT
		store [r14], r15
		; selector = ALLOW so the vdso sigreturn is dispatched
		mov64 r14, SEL
		mov64 r13, 0
		storeb [r14], r13
		ret
	.align 8
	act:
		.quad handler, 0, 0
	`)
	mustRun(t, k)
	if task.ExitCode != SysGetpid {
		t.Errorf("exit = %d, want %d (trapped getpid nr)", task.ExitCode, SysGetpid)
	}
}

func TestSUDAllowedRangeBypassesSelector(t *testing.T) {
	// The classic deployment: the vdso page is allowlisted, so sigreturn
	// never traps even with the selector at BLOCK. A syscall outside the
	// range traps; the handler leaves the selector at BLOCK and relies on
	// the allowlisted range for its own return.
	k := New(Config{})
	task := buildTask(t, k, `
	.equ SEL 0x7fef0000
	.equ RESULT 0x7fef0008
	.equ VDSO 0xFF000000
	_start:
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 31
		lea rsi, act
		mov64 rdx, 0
		syscall
		; enable SUD with allowlisted range [VDSO, VDSO+4096)
		mov64 rax, SYS_prctl
		mov64 rdi, 59
		mov64 rsi, 1
		mov64 rdx, VDSO
		mov64 r10, 4096
		mov64 r8, SEL
		syscall
		mov64 rbx, SEL
		mov64 rcx, 1
		storeb [rbx], rcx       ; BLOCK
		mov64 rax, SYS_getpid
		syscall                 ; traps
		; second trap proves the handler survived its own sigreturn
		mov64 rax, SYS_gettid
		syscall                 ; traps again
		; read count of traps
		mov64 rbx, RESULT
		load rdi, [rbx]
		; selector back to ALLOW for a clean exit
		mov64 rbx, SEL
		mov64 rcx, 0
		storeb [rbx], rcx
		mov64 rax, SYS_exit
		syscall
	handler:
		mov64 r14, RESULT
		load r15, [r14]
		addi r15, 1
		store [r14], r15
		ret                     ; vdso sigreturn: allowlisted, no recursion
	.align 8
	act:
		.quad handler, 0, 0
	`)
	mustRun(t, k)
	if task.ExitCode != 2 {
		t.Errorf("exit = %d, want 2 SIGSYS deliveries", task.ExitCode)
	}
}

func TestSUDWithoutHandlerKills(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ SEL 0x7fef0000
	_start:
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
		mov64 rax, SYS_getpid
		syscall            ; SIGSYS with no handler: death
		hlt
	`)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSYS {
		t.Errorf("exit = %d, want SIGSYS death", task.ExitCode)
	}
}

func TestSUDInvalidSelectorKills(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ SEL 0x7fef0000
	_start:
		mov64 rax, SYS_prctl
		mov64 rdi, 59
		mov64 rsi, 1
		mov64 rdx, 0
		mov64 r10, 0
		mov64 r8, SEL
		syscall
		mov64 rbx, SEL
		mov64 rcx, 7        ; neither ALLOW nor BLOCK
		storeb [rbx], rcx
		mov64 rax, SYS_getpid
		syscall
		hlt
	`)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSYS {
		t.Errorf("exit = %d, want SIGSYS death on invalid selector", task.ExitCode)
	}
}

func TestSUDClearedOnFork(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ SEL 0x7fef0000
	_start:
		mov64 rax, SYS_prctl
		mov64 rdi, 59
		mov64 rsi, 1
		mov64 rdx, 0
		mov64 r10, 0
		mov64 r8, SEL
		syscall
		; selector stays at ALLOW (0): the parent's syscalls dispatch.
		mov64 rax, SYS_fork
		syscall
		cmpi rax, 0
		jz child
		; parent: wait, propagate child exit code
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
		; The child sets its (copied) selector to BLOCK. If SUD had been
		; inherited, the next getpid would be fatal SIGSYS; since fork
		; clears SUD, it dispatches normally.
		mov64 rbx, SEL
		mov64 rcx, 1
		storeb [rbx], rcx
		mov64 rax, SYS_getpid
		syscall
		mov64 rdi, 55
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != 55 {
		t.Errorf("exit = %d, want 55 (child ran without SUD)", task.ExitCode)
	}
}

func TestSeccompErrnoFilter(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax        ; -EPERM expected
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
		t.Errorf("exit = %d, want %d", task.ExitCode, -EPERM)
	}
}

func TestSeccompTrapDeliversSIGSYS(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ RESULT 0x7fef0008
	_start:
		mov64 rax, SYS_rt_sigaction
		mov64 rdi, 31
		lea rsi, act
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_getpid
		syscall
		mov64 rbx, RESULT
		load rdi, [rbx]
		mov64 rax, SYS_exit
		syscall
	handler:
		load r15, [rsi+16]   ; siginfo.nr
		mov64 r14, RESULT
		store [r14], r15
		ret
	.align 8
	act:
		.quad handler, 0, 0
	`)
	// Trap getpid only; allow everything else (incl. rt_sigaction/exit).
	prog, err := bpf.New([]bpf.Instruction{
		bpf.LoadNr(),
		bpf.JeqK(SysGetpid, 0, 1),
		bpf.Ret(bpf.RetTrap),
		bpf.Ret(bpf.RetAllow),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.AttachSeccomp(task, prog)
	mustRun(t, k)
	if task.ExitCode != SysGetpid {
		t.Errorf("exit = %d, want trapped nr %d", task.ExitCode, SysGetpid)
	}
}

func TestSeccompKill(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_getpid
		syscall
		hlt
	`)
	prog, err := bpf.AllowList([]int32{SysExit}, bpf.RetKillProcess)
	if err != nil {
		t.Fatal(err)
	}
	k.AttachSeccomp(task, prog)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSYS {
		t.Errorf("exit = %d, want kill", task.ExitCode)
	}
}

func TestSeccompInheritedAcrossFork(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_fork
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
		mov64 rax, SYS_getpid
		syscall              ; filtered -> -EPERM
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	`)
	prog, err := bpf.ErrnoFor([]int32{SysGetpid}, EPERM)
	if err != nil {
		t.Fatal(err)
	}
	k.AttachSeccomp(task, prog)
	mustRun(t, k)
	// Child exit code (-EPERM) truncated to int32 by wait4 status.
	if int32(task.ExitCode) != -EPERM {
		t.Errorf("exit = %d, want child's -EPERM", task.ExitCode)
	}
}

func TestPtraceTracerSeesAndModifiesSyscalls(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	`)
	var entered []int64
	k.AttachTracer(task, &Tracer{
		OnEnter: func(stop *PtraceStop) {
			regs := stop.GetRegs()
			entered = append(entered, int64(regs[isa.RAX]))
		},
		OnExit: func(stop *PtraceStop) {
			regs := stop.GetRegs()
			if int64(regs[isa.RAX]) > 0 { // getpid result
				regs[isa.RAX] = 777 // tracer rewrites the return value
				stop.SetRegs(regs)
			}
		},
	})
	mustRun(t, k)
	if len(entered) != 2 || entered[0] != SysGetpid || entered[1] != SysExit {
		t.Errorf("tracer saw %v", entered)
	}
	if task.ExitCode != 777 {
		t.Errorf("exit = %d, want tracer-rewritten 777", task.ExitCode)
	}
}

func TestPtraceCostsDwarfPlainSyscalls(t *testing.T) {
	run := func(traced bool) uint64 {
		k := New(Config{})
		task := buildTask(t, k, `
		_start:
			mov64 rax, SYS_getpid
			syscall
			mov64 rax, SYS_exit
			mov64 rdi, 0
			syscall
		`)
		if traced {
			k.AttachTracer(task, &Tracer{
				OnEnter: func(stop *PtraceStop) { stop.GetRegs() },
			})
		}
		mustRun(t, k)
		return task.CPU.Cycles
	}
	plain, traced := run(false), run(true)
	if traced < plain+2*DefaultCostModel().ContextSwitch {
		t.Errorf("ptrace cost too low: plain=%d traced=%d", plain, traced)
	}
}

func TestInterceptCheckChargedOnlyWhenArmed(t *testing.T) {
	cycles := func(arm bool) uint64 {
		k := New(Config{})
		task := buildTask(t, k, `
		_start:
			mov64 rax, 500
			syscall
			mov64 rax, SYS_exit
			mov64 rdi, 0
			syscall
		`)
		if arm {
			// SUD enabled with selector at ALLOW: syscalls still dispatch
			// but pay InterceptCheck + SUDSelectorRead.
			if err := task.AS.WriteForce(sudSelector, []byte{SyscallDispatchFilterAllow}); err != nil {
				t.Fatal(err)
			}
			if err := k.ConfigSUD(task, SUDConfig{Enabled: true, SelectorAddr: sudSelector}); err != nil {
				t.Fatal(err)
			}
		}
		mustRun(t, k)
		return task.CPU.Cycles
	}
	base, armed := cycles(false), cycles(true)
	c := DefaultCostModel()
	wantExtra := 2 * (c.InterceptCheck + c.SUDSelectorRead) // two syscalls
	if armed-base != wantExtra {
		t.Errorf("SUD-enabled extra = %d, want %d", armed-base, wantExtra)
	}
}
