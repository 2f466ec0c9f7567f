package ptracer

import (
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/bpf"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/loader"
	"lazypoline/internal/trace"
)

func spawn(t *testing.T, k *kernel.Kernel, src string) *kernel.Task {
	t.Helper()
	p, err := asm.Assemble(src, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.FromProgram(p, "_start")
	if err != nil {
		t.Fatal(err)
	}
	task, err := k.SpawnImage(img, "tracee")
	if err != nil {
		t.Fatal(err)
	}
	return task
}

const guest = `
_start:
	mov64 rax, 39
	syscall
	mov rdi, rax
	mov64 rax, 60
	syscall
`

func TestTraceAndModify(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	rec := &trace.Recorder{}
	m := Attach(k, task, rec)
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Stops != 2 {
		t.Errorf("enter stops = %d, want 2", m.Stops)
	}
	want := []int64{kernel.SysGetpid, kernel.SysExit}
	if d := trace.DiffNrs(rec.Nrs(), want); d != "" {
		t.Errorf("trace: %s (%v)", d, rec.Nrs())
	}
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d", task.ExitCode)
	}
}

func TestEmulation(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	gt := &trace.GroundTruth{}
	k.OnDispatch = gt.Hook()
	ip := interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			if c.Nr == kernel.SysGetpid {
				c.Ret = 555
				return interpose.Emulate
			}
			return interpose.Continue
		},
	}
	Attach(k, task, ip)
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 555 {
		t.Errorf("exit = %d, want 555", task.ExitCode)
	}
	for _, nr := range gt.Nrs() {
		if nr == kernel.SysGetpid {
			t.Error("emulated getpid dispatched")
		}
	}
}

func TestReturnValueRewriting(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	ip := interpose.FuncInterposer{
		OnExit: func(c *interpose.Call) {
			if c.Nr == kernel.SysGetpid {
				c.Ret = 9876
			}
		},
	}
	Attach(k, task, ip)
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 9876 {
		t.Errorf("exit = %d, want rewritten 9876", task.ExitCode)
	}
}

func TestPtraceSlowestMechanism(t *testing.T) {
	// ptrace should be far slower than even SUD per syscall (Table I
	// "Low").
	cycles := func(attach bool) uint64 {
		k := kernel.New(kernel.Config{})
		task := spawn(t, k, `
		_start:
			mov64 rcx, 20
		loop:
			push rcx
			mov64 rax, 500
			syscall
			pop rcx
			addi rcx, -1
			jnz loop
			mov64 rdi, 0
			mov64 rax, 60
			syscall
		`)
		if attach {
			Attach(k, task, interpose.Dummy{})
		}
		if err := k.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return task.CPU.Cycles
	}
	native, traced := cycles(false), cycles(true)
	if traced < 20*native {
		t.Errorf("ptrace %.1fx native, expected >20x", float64(traced)/float64(native))
	}
}

// TestSignalsLeaveNoCallInFlight: a signal handler returns through
// rt_sigreturn, which never reaches an exit stop, so the tracer must drop
// it at its enter stop. After 50 delivered signals and the final exit no
// call is left in flight on the task.
func TestSignalsLeaveNoCallInFlight(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, kernel.AsmPrelude+`
	_start:
		mov64 rax, SYS_rt_sigaction   ; SIGUSR1 -> handler
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		mov64 rax, SYS_getpid
		syscall
		mov r13, rax
		mov64 r12, 50
	again:
		mov rdi, r13
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		addi r12, -1
		cmpi r12, 0
		jnz again
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	handler:
		ret
	.align 8
	act:
		.quad handler, 0, 0
	`)
	delivered := 0
	m := Attach(k, task, interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			if c.Nr == kernel.SysRtSigreturn {
				delivered++
			}
			return interpose.Continue
		},
	})
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 0 || delivered != 50 {
		t.Fatalf("exit = %d after %d sigreturns, want 0 after 50", task.ExitCode, delivered)
	}
	if d := interpose.Pending(task, m).Depth(); d != 0 {
		t.Errorf("%d calls in flight, want 0", d)
	}
}

// TestAbortedCallGetsExitStop: a call that seccomp aborts after its
// enter stop (RET_TRAP posts SIGSYS instead of running it) still gets
// its exit stop, as in Linux, so the tracer closes it. Without the stop
// each trapped getpid stayed in flight.
func TestAbortedCallGetsExitStop(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, kernel.AsmPrelude+`
	_start:
		mov64 rax, SYS_rt_sigaction   ; SIGSYS -> handler
		mov64 rdi, 31
		lea rsi, act
		mov64 rdx, 0
		syscall
		mov64 r12, 20
	again:
		mov64 rax, SYS_getpid         ; trapped
		syscall
		addi r12, -1
		cmpi r12, 0
		jnz again
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	handler:
		ret
	.align 8
	act:
		.quad handler, 0, 0
	`)
	prog, err := bpf.New([]bpf.Instruction{
		bpf.LoadNr(),
		bpf.JeqK(kernel.SysGetpid, 0, 1),
		bpf.Ret(bpf.RetTrap),
		bpf.Ret(bpf.RetAllow),
	})
	if err != nil {
		t.Fatal(err)
	}
	k.AttachSeccomp(task, prog)
	var getpids, exits int
	m := Attach(k, task, interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			if c.Nr == kernel.SysGetpid {
				getpids++
			}
			return interpose.Continue
		},
		OnExit: func(c *interpose.Call) {
			if c.Nr == kernel.SysGetpid {
				exits++
			}
		},
	})
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 0 || getpids != 20 || exits != 20 {
		t.Errorf("exit = %d after %d trapped getpids and %d exits, want 0 after 20 and 20",
			task.ExitCode, getpids, exits)
	}
	if d := interpose.Pending(task, m).Depth(); d != 0 {
		t.Errorf("%d calls in flight, want 0", d)
	}
}
