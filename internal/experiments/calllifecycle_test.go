package experiments

import (
	"fmt"
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/ptracer"
)

// lifecycleChecker is an interposer that checks the Exit guarantee of
// interpose.Interposer: each Exit gets the innermost call still kept, the
// kept calls being the emulated ones and those whose number returns.
type lifecycleChecker struct {
	kept   []*interpose.Call
	enters int
	exits  int
	errs   []string
}

// emulatedRet is what the checker makes gettid return.
const emulatedRet = 4242

func (l *lifecycleChecker) Enter(c *interpose.Call) interpose.Action {
	l.enters++
	if c.Nr == kernel.SysGettid {
		c.Ret = emulatedRet
		l.kept = append(l.kept, c)
		return interpose.Emulate
	}
	if kernel.SyscallReturns(c.Nr) {
		l.kept = append(l.kept, c)
	}
	return interpose.Continue
}

func (l *lifecycleChecker) Exit(c *interpose.Call) {
	l.exits++
	n := len(l.kept)
	switch {
	case n == 0:
		l.errs = append(l.errs, fmt.Sprintf("Exit of %s with no call kept", kernel.SyscallName(c.Nr)))
		return
	case c != l.kept[n-1]:
		l.errs = append(l.errs, fmt.Sprintf("Exit of %s is not the innermost kept call %s",
			kernel.SyscallName(c.Nr), kernel.SyscallName(l.kept[n-1].Nr)))
	case !kernel.SyscallReturns(c.Nr):
		l.errs = append(l.errs, fmt.Sprintf("Exit of never-returning %s", kernel.SyscallName(c.Nr)))
	case c.Nr == kernel.SysGettid && c.Ret != emulatedRet:
		l.errs = append(l.errs, fmt.Sprintf("emulated gettid exits with Ret %d, want %d", c.Ret, emulatedRet))
	}
	l.kept = l.kept[:n-1]
}

// TestCallLifecycle: every mechanism that runs an interposer opens, keeps
// and closes its calls by one rule (interpose.CallStack). The guest makes
// an emulated call, takes signals at the end of its kills (the handler's
// rt_sigreturn enters while the kill is still open), fails an execve and
// exits; the interposer sees LIFO exits, none for a call that never
// returns, and nothing is left in flight.
func TestCallLifecycle(t *testing.T) {
	prog, err := guest.Build("call-lifecycle", guest.Header+`
	_start:
		mov64 rax, SYS_rt_sigaction   ; SIGUSR1 -> handler
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		mov64 r10, 8
		syscall
		mov64 rax, SYS_gettid         ; emulated
		syscall
		cmpi rax, 4242
		jnz fail
		mov64 rax, SYS_getpid
		syscall
		mov r13, rax
		mov64 r12, 5
	again:
		mov rdi, r13
		mov64 rsi, 10
		mov64 rax, SYS_kill
		syscall
		addi r12, -1
		cmpi r12, 0
		jnz again
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		mov64 rax, SYS_execve         ; fails: no such file
		syscall
		cmpi rax, -2
		jnz fail
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	fail:
		mov64 rdi, 1
		mov64 rax, SYS_exit
		syscall
	handler:                          ; no syscall: under SUD and seccomp-user
		ret                           ; it runs inside the SIGSYS handler
	.align 8
	act:
		.quad handler, 0, 0
	path:
		.ascii "/no/such/program\x00"
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		MechZpoline, MechLazypolineNX, MechLazypoline, MechLazypolineMPK,
		MechSUD, MechSeccompUser, MechPtrace,
	} {
		t.Run(name, func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			task, err := prog.Spawn(k)
			if err != nil {
				t.Fatal(err)
			}
			ip := &lifecycleChecker{}
			mech, err := attach(name, k, task, ip, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			if task.ExitCode != 0 {
				t.Errorf("exit = %d, want 0", task.ExitCode)
			}
			for _, e := range ip.errs {
				t.Error(e)
			}
			if len(ip.kept) != 0 || ip.exits == 0 {
				t.Errorf("%d calls in flight after %d Enters and %d Exits, want 0", len(ip.kept), ip.enters, ip.exits)
			}
			// The ptracer keys its stack by itself; the others' keys are
			// private, but their stacks die with the task.
			if m, ok := mech.(*ptracer.Mechanism); ok {
				if d := interpose.Pending(task, m).Depth(); d != 0 {
					t.Errorf("%d calls left on the ptracer's stack, want 0", d)
				}
			}
		})
	}
}
