package kernel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestSchedulerDeterminism: the whole machine is deterministic — running
// the same multi-process workload twice yields identical exit codes,
// console output and cycle counts. (This property is what lets the
// benchmarks run without repetitions; the paper needed 10 runs and
// standard deviations on hardware.)
func TestSchedulerDeterminism(t *testing.T) {
	type outcome struct {
		exits   []int
		cycles  []uint64
		console string
	}
	run := func() outcome {
		k := New(Config{})
		var tasks []*Task
		// Three concurrent guests with different syscall mixes.
		tasks = append(tasks, buildTask(t, k, `
		_start:
			mov64 rcx, 30
		l1:
			push rcx
			mov64 rax, SYS_getpid
			syscall
			pop rcx
			addi rcx, -1
			jnz l1
			mov64 rdi, 1
			mov64 rax, SYS_exit
			syscall
		`))
		tasks = append(tasks, buildTask(t, k, `
		_start:
			mov64 rax, SYS_fork
			syscall
			cmpi rax, 0
			jz child
			mov64 rdi, -1
			mov64 rsi, 0
			mov64 rdx, 0
			mov64 rax, SYS_wait4
			syscall
			mov64 rdi, 2
			mov64 rax, SYS_exit
			syscall
		child:
			mov64 rax, SYS_gettid
			syscall
			mov64 rdi, 0
			mov64 rax, SYS_exit
			syscall
		`))
		tasks = append(tasks, buildTask(t, k, `
		_start:
			mov64 rax, SYS_write
			mov64 rdi, 1
			lea rsi, m
			mov64 rdx, 3
			syscall
			mov64 rdi, 3
			mov64 rax, SYS_exit
			syscall
		m:
			.ascii "abc"
		`))
		mustRun(t, k)
		var o outcome
		for _, tk := range tasks {
			o.exits = append(o.exits, tk.ExitCode)
			o.cycles = append(o.cycles, tk.CPU.Cycles)
			o.console += string(tk.ConsoleOut)
		}
		return o
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("nondeterministic execution:\n%v\n%v", a, b)
	}
}

// TestRandomSyscallStorm throws structured random syscall sequences at
// the kernel: whatever happens, the kernel must not wedge (every guest
// terminates, cleanly or by signal) and must stay deterministic.
func TestRandomSyscallStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nrs := []int{SysGetpid, SysGettid, SysSchedYield, SysBrk, NonexistentSyscall,
		SysGetcwd, SysAccess, SysIoctl, SysFutex}
	for trial := 0; trial < 20; trial++ {
		var b strings.Builder
		b.WriteString("_start:\n")
		for i := 0; i < 30; i++ {
			nr := nrs[rng.Intn(len(nrs))]
			fmt.Fprintf(&b, "\tmov64 rax, %d\n", nr)
			fmt.Fprintf(&b, "\tmov64 rdi, %d\n", rng.Intn(2)*0x7fef0000)
			fmt.Fprintf(&b, "\tmov64 rsi, %d\n", rng.Intn(64))
			b.WriteString("\tsyscall\n")
		}
		b.WriteString("\tmov64 rdi, 0\n\tmov64 rax, SYS_exit\n\tsyscall\n")

		run := func() (int, uint64) {
			k := New(Config{})
			task := buildTask(t, k, b.String())
			if err := k.Run(10_000_000); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return task.ExitCode, task.CPU.Cycles
		}
		e1, c1 := run()
		e2, c2 := run()
		if e1 != e2 || c1 != c2 {
			t.Errorf("trial %d: nondeterministic (%d/%d vs %d/%d)", trial, e1, c1, e2, c2)
		}
	}
}
