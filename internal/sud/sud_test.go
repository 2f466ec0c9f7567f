package sud

import (
	"testing"

	"lazypoline/internal/asm"
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
	task, err := k.SpawnImage(img, "guest")
	if err != nil {
		t.Fatal(err)
	}
	return task
}

const guest = `
_start:
	mov64 rax, 39     ; getpid
	syscall
	mov rdi, rax
	mov64 rax, 60     ; exit(pid)
	syscall
`

func TestInterposesEverySyscall(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	rec := &trace.Recorder{}
	m, err := Attach(k, task, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d, want pid", task.ExitCode)
	}
	if m.Hits != 2 {
		t.Errorf("SIGSYS hits = %d, want 2 (every syscall traps)", m.Hits)
	}
	want := []int64{kernel.SysGetpid, kernel.SysExit}
	if d := trace.DiffNrs(rec.Nrs(), want); d != "" {
		t.Errorf("trace: %s", d)
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
				c.Ret = 31337
				return interpose.Emulate
			}
			return interpose.Continue
		},
	}
	if _, err := Attach(k, task, ip); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 31337 {
		t.Errorf("exit = %d, want emulated 31337", task.ExitCode)
	}
	for _, nr := range gt.Nrs() {
		if nr == kernel.SysGetpid {
			t.Error("emulated getpid dispatched anyway")
		}
	}
}

func TestCatchesJITSyscalls(t *testing.T) {
	// SUD is exhaustive: a syscall built at run time from immediates is
	// trapped like any other.
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, `
	_start:
		mov64 rax, 9
		mov64 rdi, 0
		mov64 rsi, 4096
		mov64 rdx, 7
		mov64 r10, 0x20
		syscall
		mov r12, rax
		mov64 rcx, 0x270001
		store [r12], rcx
		mov64 rcx, 0x909090C3050F0000
		store [r12+8], rcx
		call r12
		mov rdi, rax
		mov64 rax, 60
		syscall
	`)
	rec := &trace.Recorder{}
	if _, err := Attach(k, task, rec); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != task.Tgid {
		t.Fatalf("exit = %d, want pid", task.ExitCode)
	}
	if !rec.Contains(kernel.SysGetpid) {
		t.Error("JIT getpid missing from SUD trace")
	}
}

func TestMuchSlowerThanNative(t *testing.T) {
	// Sanity check of the cost model: interposed execution is over an
	// order of magnitude slower (Table II says 20.8x on no-op syscalls).
	run := func(attach bool) uint64 {
		k := kernel.New(kernel.Config{})
		task := spawn(t, k, `
		_start:
			mov64 rcx, 20
		loop:
			push rcx
			mov64 rax, 500    ; non-existent syscall
			syscall
			pop rcx
			addi rcx, -1
			jnz loop
			mov64 rdi, 0
			mov64 rax, 60
			syscall
		`)
		if attach {
			if _, err := Attach(k, task, interpose.Dummy{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return task.CPU.Cycles
	}
	native, interposed := run(false), run(true)
	if interposed < 10*native {
		t.Errorf("SUD = %d cycles vs native %d (%.1fx): expected >10x",
			interposed, native, float64(interposed)/float64(native))
	}
}
