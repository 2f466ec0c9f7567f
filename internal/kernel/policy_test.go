package kernel

import (
	"strings"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/loader"
	"lazypoline/internal/policy"
	"lazypoline/internal/telemetry"
)

// These tests exercise the syscall-policy enforcement layers
// (kernel/policy.go, DESIGN.md §6) on a bare kernel: privilege-region
// sealing and kills, the configuration prctl, SFIP learning and
// enforcement, and inheritance across clone and execve. The
// cross-mechanism invariance of the same machinery is covered by
// internal/experiments.

// jitBody is the rogue-JIT pattern from guest.AttackJIT, in the kernel
// test dialect: map a fresh RWX page at a fixed address, emit a getpid
// SYSCALL into it from immediates, and call it. Exits 42 when nothing
// stops the rogue call.
const jitBody = `
		mov64 rax, SYS_mmap
		mov64 rdi, 0x50000000
		mov64 rsi, 4096
		mov64 rdx, 7
		mov64 r10, 0x30
		syscall
		cmpi rax, 0
		jl jfail
		mov r12, rax
		mov64 rdx, 0x270001
		store [r12], rdx
		mov64 rdx, 0x909090C3050F0000
		store [r12+8], rdx
		call r12
		mov64 rdi, 42
		mov64 rax, SYS_exit
		syscall
	jfail:
		mov64 rdi, 255
		mov64 rax, SYS_exit
		syscall
`

const jitGuest = `
	_start:
` + jitBody

func TestPolicyRegionKillsRogueJIT(t *testing.T) {
	// Policy off: the rogue getpid dispatches and the guest exits 42,
	// proving the guest actually fires a syscall from the data page.
	k := New(Config{})
	task := buildTask(t, k, jitGuest)
	mustRun(t, k)
	if task.ExitCode != 42 {
		t.Fatalf("policy-off exit = %d, want 42 (rogue syscall must succeed)", task.ExitCode)
	}

	// Regions on: the set seals at the first syscall (the mmap), so the
	// page mapped by that very call is unprivileged and the emitted
	// SYSCALL dies at its own address.
	sink := telemetry.NewSink()
	k = New(Config{Policy: &PolicyConfig{Regions: true}, Telemetry: sink})
	task = buildTask(t, k, jitGuest)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSYS {
		t.Errorf("exit = %d, want %d (region kill)", task.ExitCode, 128+SIGSYS)
	}
	if !strings.Contains(task.PolicyViolation, "unprivileged address 0x50000") {
		t.Errorf("violation = %q, want rogue-page address", task.PolicyViolation)
	}
	snap := sink.Metrics.Snapshot()
	if snap.Counters["policy.region.violations"] != 1 {
		t.Errorf("policy.region.violations = %d, want 1", snap.Counters["policy.region.violations"])
	}
	if snap.Counters["policy.region.seals"] != 1 {
		t.Errorf("policy.region.seals = %d, want 1", snap.Counters["policy.region.seals"])
	}
	if snap.Counters["kernel.abort.policy-region"] != 1 {
		t.Errorf("kernel.abort.policy-region = %d, want 1", snap.Counters["kernel.abort.policy-region"])
	}
}

func TestPolicyRegionPrctlAddAllowsJIT(t *testing.T) {
	// The guest declares the JIT page privileged during the unsealed
	// configuration window, then seals explicitly. The rogue call is now
	// sanctioned and the guest reaches its normal exit.
	k := New(Config{Policy: &PolicyConfig{Regions: true}})
	task := buildTask(t, k, `
	_start:
		; prctl(PR_SET_SYSCALL_PRIVILEGE, ADD, 0x50000000, 4096)
		mov64 rax, SYS_prctl
		mov64 rdi, 71
		mov64 rsi, 1
		mov64 rdx, 0x50000000
		mov64 r10, 4096
		syscall
		cmpi rax, 0
		jnz pfail
		; prctl(PR_SET_SYSCALL_PRIVILEGE, SEAL)
		mov64 rax, SYS_prctl
		mov64 rdi, 71
		mov64 rsi, 2
		syscall
		cmpi rax, 0
		jnz pfail
		jmp jit
	pfail:
		mov64 rdi, 99
		mov64 rax, SYS_exit
		syscall
	jit:
	`+jitBody)
	mustRun(t, k)
	if task.ExitCode != 42 {
		t.Errorf("exit = %d (violation %q), want 42 (declared JIT page is privileged)",
			task.ExitCode, task.PolicyViolation)
	}
}

func TestPolicyRegionAddAfterSealEPERM(t *testing.T) {
	k := New(Config{Policy: &PolicyConfig{Regions: true}})
	task := buildTask(t, k, `
	_start:
		; first syscall that is not the policy prctl: lazy-seals the set
		mov64 rax, SYS_getpid
		syscall
		; the configuration window is closed; adds must fail with -EPERM
		mov64 rax, SYS_prctl
		mov64 rdi, 71
		mov64 rsi, 1
		mov64 rdx, 0x50000000
		mov64 r10, 4096
		syscall
		cmpi rax, -1
		jnz bad
		mov64 rdi, 7
		mov64 rax, SYS_exit
		syscall
	bad:
		mov64 rdi, 99
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != 7 {
		t.Errorf("exit = %d, want 7 (post-seal add returns -EPERM)", task.ExitCode)
	}
}

func TestPolicyPrctlEINVALWhenOff(t *testing.T) {
	// Without the region layer the policy prctl is an unknown option:
	// -EINVAL, exactly like any other unrecognised prctl.
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_prctl
		mov64 rdi, 71
		mov64 rsi, 1
		mov64 rdx, 0x50000000
		mov64 r10, 4096
		syscall
		cmpi rax, -22
		jnz bad
		mov64 rdi, 7
		mov64 rax, SYS_exit
		syscall
	bad:
		mov64 rdi, 99
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != 7 {
		t.Errorf("exit = %d, want 7 (policy prctl is -EINVAL when the layer is off)", task.ExitCode)
	}
}

// sfipGuest performs write, write, getpid — the last transition is the
// one the enforcement profile omits.
const sfipGuest = `
	_start:
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, msg
		mov64 rdx, 6
		syscall
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, msg
		mov64 rdx, 6
		syscall
		mov64 rax, SYS_getpid
		syscall
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	msg:
		.ascii "hello\n"
`

func TestPolicySFIPKillsForbiddenTransition(t *testing.T) {
	prof := policy.NewProfile(SysWrite, SysGetpid)
	prof.AllowStart(SysWrite)
	prof.Allow(SysWrite, SysWrite)
	sink := telemetry.NewSink()
	k := New(Config{Policy: &PolicyConfig{SFIP: prof}, Telemetry: sink})
	task := buildTask(t, k, sfipGuest)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSYS {
		t.Errorf("exit = %d, want %d (SFIP kill)", task.ExitCode, 128+SIGSYS)
	}
	want := "policy: transition write -> getpid not in profile"
	if task.PolicyViolation != want {
		t.Errorf("violation = %q, want %q", task.PolicyViolation, want)
	}
	// The benign prefix made it to the console before the kill.
	if string(task.ConsoleOut) != "hello\nhello\n" {
		t.Errorf("console = %q, want the two benign writes", task.ConsoleOut)
	}
	snap := sink.Metrics.Snapshot()
	if snap.Counters["policy.sfip.violations"] != 1 {
		t.Errorf("policy.sfip.violations = %d, want 1", snap.Counters["policy.sfip.violations"])
	}
	if snap.Counters["kernel.abort.policy-sfip"] != 1 {
		t.Errorf("kernel.abort.policy-sfip = %d, want 1", snap.Counters["kernel.abort.policy-sfip"])
	}
}

func TestPolicySFIPLearnMatchesEnforceCycles(t *testing.T) {
	// A learning run observes every transition without killing, and must
	// cost exactly what the enforcing run costs — that cycle parity is
	// what lets a learned profile's run double as the enforce schedule.
	prof := policy.NewProfile(SysWrite, SysGetpid)
	k := New(Config{Policy: &PolicyConfig{SFIPLearn: prof}})
	task := buildTask(t, k, sfipGuest)
	mustRun(t, k)
	if task.ExitCode != 0 {
		t.Fatalf("learn run exit = %d (violation %q), want 0", task.ExitCode, task.PolicyViolation)
	}
	learnCycles := task.CPU.Cycles
	for _, e := range [][2]int64{{policy.Start, SysWrite}, {SysWrite, SysWrite}, {SysWrite, SysGetpid}} {
		if !prof.Allowed(e[0], e[1]) {
			t.Errorf("learned profile is missing transition %v", e)
		}
	}

	k = New(Config{Policy: &PolicyConfig{SFIP: prof}})
	task = buildTask(t, k, sfipGuest)
	mustRun(t, k)
	if task.ExitCode != 0 {
		t.Fatalf("enforce run exit = %d (violation %q), want 0", task.ExitCode, task.PolicyViolation)
	}
	if task.CPU.Cycles != learnCycles {
		t.Errorf("learn run cost %d cycles, enforce run %d; they must be identical",
			learnCycles, task.CPU.Cycles)
	}
}

func TestPolicySFIPCloneInheritsState(t *testing.T) {
	// The child starts from the parent's automaton state (the fork that
	// created it), not from the start state: getpid is legal from start
	// but not from fork, so a child that was wrongly reset would survive.
	prof := policy.NewProfile(SysWrite, SysFork, SysGetpid)
	prof.AllowStart(SysWrite)
	prof.AllowStart(SysGetpid)
	prof.Allow(SysWrite, SysFork)
	k := New(Config{Policy: &PolicyConfig{SFIP: prof}})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, msg
		mov64 rdx, 6
		syscall
		mov64 rax, SYS_fork
		syscall
		cmpi rax, 0
		jz child
		; parent: reap the child and exit with its status
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
		syscall            ; fork -> getpid: not in the profile
		mov64 rdi, 55
		mov64 rax, SYS_exit
		syscall
	msg:
		.ascii "hello\n"
	`)
	mustRun(t, k)
	if task.ExitCode != 128+SIGSYS {
		t.Errorf("parent saw child status %d, want %d (child killed in inherited state)",
			task.ExitCode, 128+SIGSYS)
	}
}

func TestPolicyExecveResetsPolicyState(t *testing.T) {
	// execve replaces the program, so both layers restart: the region
	// set is rebuilt (unsealed) from the NEW image's text, and the
	// automaton returns to the start state. The new image lives at a
	// different base, so a stale sealed set could not contain it, and
	// the profile has no getpid->getpid edge, so a stale automaton state
	// would kill the new program's first call.
	prof := policy.NewProfile(SysGetpid)
	prof.AllowStart(SysGetpid)
	k := New(Config{Policy: &PolicyConfig{Regions: true, SFIP: prof}})

	p, err := asm.Assemble(`
	_start:
		mov64 rax, 39
		syscall
		mov64 rax, 60
		mov64 rdi, 5
		syscall
	`, 0x40000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.FromProgram(p, "_start")
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterImage("/bin/next", img)

	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_getpid
		syscall            ; seals the old set; automaton state = getpid
		mov64 rax, SYS_execve
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov64 rdi, 99      ; execve returned: test is broken
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/bin/next"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != 5 {
		t.Errorf("exit = %d (violation %q), want 5 (fresh policy state after execve)",
			task.ExitCode, task.PolicyViolation)
	}
}

func TestPolicyConfigNormalize(t *testing.T) {
	// An all-off config is the same kernel as no config at all — the
	// invariance suites rely on this to compare Policy nil against
	// &PolicyConfig{} byte-for-byte.
	if (&PolicyConfig{}).normalize() != nil {
		t.Error("all-off PolicyConfig did not normalize to nil")
	}
	var nilCfg *PolicyConfig
	if nilCfg.normalize() != nil {
		t.Error("nil PolicyConfig did not normalize to nil")
	}
	on := &PolicyConfig{Regions: true}
	if on.normalize() != on {
		t.Error("regions-on config must normalize to itself")
	}
}
