package ldpreload

import (
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/trace"
)

func setupFS(t *testing.T, k *kernel.Kernel) {
	t.Helper()
	for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
		if err := k.FS.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for path, contents := range guest.CoreutilFSFiles {
		if err := k.FS.WriteFile(path, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHooksWrapperCalls(t *testing.T) {
	k := kernel.New(kernel.Config{})
	setupFS(t, k)
	prog, err := guest.Coreutil("cat", guest.LibcUbuntu2004(false))
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	m, err := Attach(k, task, rec, prog.Image.Symbols, DefaultWrappers)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hooked) == 0 {
		t.Fatal("nothing hooked")
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 0 {
		t.Fatalf("cat exited %d", task.ExitCode)
	}
	// cat's open/read/write/close all flow through libc wrappers.
	for _, nr := range []int64{kernel.SysOpen, kernel.SysRead, kernel.SysWrite, kernel.SysClose} {
		if !rec.Contains(nr) {
			t.Errorf("wrapper call %s not interposed", kernel.SyscallName(nr))
		}
	}
	// cat still behaves identically.
	want := guest.CoreutilFSFiles["/tmp/file.txt"]
	if string(task.ConsoleOut) != want {
		t.Errorf("output corrupted by hooks: %q", task.ConsoleOut)
	}
}

// TestMissesRawSyscalls is the paper's Related-Work point: syscall
// instructions outside wrapper functions are invisible to function-level
// interposition — the exhaustiveness gap that instruction-level
// mechanisms (and lazypoline in particular) close.
func TestMissesRawSyscalls(t *testing.T) {
	k := kernel.New(kernel.Config{})
	prog, err := guest.Build("raw", guest.Header+`
	_start:
		call libc_init
		; a RAW getpid, not via any wrapper (what exploit payloads,
		; static binaries and inlined syscalls look like)
		mov64 rax, SYS_getpid
		syscall
		mov rdi, rax
		call libc_exit
	`+guest.LibcUbuntu2004(false).Source())
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	if _, err := Attach(k, task, rec, prog.Image.Symbols, DefaultWrappers); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != task.Tgid {
		t.Fatalf("exit = %d, want pid", task.ExitCode)
	}
	if rec.Contains(kernel.SysGetpid) {
		t.Error("raw getpid was interposed — function-level hooks should miss it")
	}
	// The wrapped exit IS seen: the mechanism works, it just is not
	// exhaustive.
	if !rec.Contains(kernel.SysExit) {
		t.Error("wrapped exit not interposed")
	}
}

// TestUnknownWrappersAreSilentGaps: a wrapper missing from the mapping
// is simply not hooked ("must identify all syscall wrapper functions...
// does not scale").
func TestUnknownWrappersAreSilentGaps(t *testing.T) {
	k := kernel.New(kernel.Config{})
	setupFS(t, k)
	prog, err := guest.Coreutil("cat", guest.LibcUbuntu2004(false))
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	// Only read is in our map; open/write/close are "unknown wrappers".
	m, err := Attach(k, task, rec, prog.Image.Symbols, []WrapperInfo{
		{"libc_read", kernel.SysRead},
		{"libc_mystery", 999}, // not in the symbol table at all
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Missing) != 1 || m.Missing[0] != "libc_mystery" {
		t.Errorf("missing = %v", m.Missing)
	}
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 0 {
		t.Fatalf("cat exited %d", task.ExitCode)
	}
	if !rec.Contains(kernel.SysRead) {
		t.Error("hooked read not seen")
	}
	if rec.Contains(kernel.SysOpen) || rec.Contains(kernel.SysClose) {
		t.Error("unhooked wrappers were somehow interposed")
	}
}

// TestMicrobenchOverheadMinimal: the paper concedes function-level
// interposition is fast ("performance impact ... minimal") — cheaper
// even than zpoline, since there is no trampoline round trip per
// syscall, only a stub on the wrapper path.
func TestMicrobenchOverheadMinimal(t *testing.T) {
	run := func(hook bool) uint64 {
		k := kernel.New(kernel.Config{})
		prog, err := guest.Build("loop", guest.Header+`
		_start:
			call libc_init
			mov64 rcx, 200
		loop:
			push rcx
			mov64 rdi, 1
			lea rsi, msg
			mov64 rdx, 1
			call libc_write
			pop rcx
			addi rcx, -1
			jnz loop
			mov64 rdi, 0
			call libc_exit
		msg:
			.ascii "x"
		`+guest.LibcUbuntu2004(false).Source())
		if err != nil {
			t.Fatal(err)
		}
		task, err := prog.Spawn(k)
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			if _, err := Attach(k, task, &trace.Recorder{}, prog.Image.Symbols, DefaultWrappers); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		return task.CPU.Cycles
	}
	base, hooked := run(false), run(true)
	overhead := float64(hooked) / float64(base)
	t.Logf("function-level interposition overhead: %.3fx", overhead)
	if overhead > 1.15 {
		t.Errorf("overhead %.3fx, expected minimal (<1.15x)", overhead)
	}
}

// TestWrappedCallAllocs: the hook payload takes its Call from the task's
// call stack, so a warm wrapped call allocates nothing. Before, every
// wrapped call allocated its own Call.
func TestWrappedCallAllocs(t *testing.T) {
	k := kernel.New(kernel.Config{})
	prog, err := guest.Build("close-loop", guest.Header+`
	_start:
		call libc_init
	again:
		mov64 rdi, -1
		call libc_close
		jmp again
	`+guest.LibcUbuntu2004(false).Source())
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	var closes int
	ip := interpose.FuncInterposer{OnEnter: func(*interpose.Call) interpose.Action {
		closes++
		return interpose.Continue
	}}
	if _, err := Attach(k, task, ip, prog.Image.Symbols, DefaultWrappers); err != nil {
		t.Fatal(err)
	}
	k.RunSlice(100_000) // warm: decoded blocks, the task's call stack
	before := closes
	if n := testing.AllocsPerRun(50, func() { k.RunSlice(10_000) }); n != 0 {
		t.Errorf("%.1f objects allocated per slice of wrapped calls, want 0", n)
	}
	if closes == before {
		t.Fatal("no wrapped call ran")
	}
}
