package seccomputil

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
	mov64 rax, 39
	syscall
	mov rdi, rax
	mov64 rax, 60
	syscall
`

func TestBPFPolicyErrno(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	err := AttachBPF(k, task, BPFPolicy{
		Errno: map[int32]uint16{kernel.SysGetpid: kernel.EPERM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != -kernel.EPERM {
		t.Errorf("exit = %d, want -EPERM", task.ExitCode)
	}
}

func TestBPFPolicyKillByDefault(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	err := AttachBPF(k, task, BPFPolicy{
		Allowed:     []int32{kernel.SysExit},
		DefaultKill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 128+kernel.SIGSYS {
		t.Errorf("exit = %d, want SIGSYS kill", task.ExitCode)
	}
}

func TestUserTrapInterposes(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	rec := &trace.Recorder{}
	m, err := AttachUser(k, task, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d, want pid", task.ExitCode)
	}
	if m.Traps != 2 {
		t.Errorf("traps = %d, want 2", m.Traps)
	}
	want := []int64{kernel.SysGetpid, kernel.SysExit}
	if d := trace.DiffNrs(rec.Nrs(), want); d != "" {
		t.Errorf("trace: %s", d)
	}
}

func TestUserEmulation(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, guest)
	ip := interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			if c.Nr == kernel.SysGetpid {
				c.Ret = 777
				return interpose.Emulate
			}
			return interpose.Continue
		},
	}
	if _, err := AttachUser(k, task, ip); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 777 {
		t.Errorf("exit = %d, want 777", task.ExitCode)
	}
}

func TestUserSlowerThanBPF(t *testing.T) {
	// seccomp-user pays signal round trips; seccomp-bpf pays only filter
	// execution. The gap should be large (Table I: High vs Moderate
	// efficiency... seccomp-user is the slow one).
	run := func(user bool) uint64 {
		k := kernel.New(kernel.Config{})
		task := spawn(t, k, `
		_start:
			mov64 rcx, 20
		loop:
			push rcx
			mov64 rax, 39
			syscall
			pop rcx
			addi rcx, -1
			jnz loop
			mov64 rdi, 0
			mov64 rax, 60
			syscall
		`)
		if user {
			if _, err := AttachUser(k, task, interpose.Dummy{}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := AttachBPF(k, task, BPFPolicy{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		return task.CPU.Cycles
	}
	bpfCycles, userCycles := run(false), run(true)
	if userCycles < 5*bpfCycles {
		t.Errorf("seccomp-user %d vs seccomp-bpf %d: expected >5x gap", userCycles, bpfCycles)
	}
}
