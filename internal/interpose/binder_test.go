package interpose

import (
	"strings"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
)

// buildHarness spawns a guest that calls the entry stub directly (as a
// rewritten call-rax site would) and wires a Binder to it — exercising
// the stub + binder plumbing without any mechanism on top.
func buildHarness(t *testing.T, ip Interposer, opts StubOpts) (*kernel.Kernel, *kernel.Task) {
	t.Helper()
	k := kernel.New(kernel.Config{})
	b := NewBinder(ip)
	opts.EnterHcall = k.RegisterHcall(b.Enter)
	opts.ExitHcall = k.RegisterHcall(b.Exit)

	// Guest: getpid through the stub, exit(result) natively.
	p, err := asm.Assemble(`
	_start:
		mov64 rax, 39
		mov64 r11, 0x20000     ; stub address
		call r11
		mov rdi, rax
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
	task, err := k.SpawnImage(img, "binder-harness")
	if err != nil {
		t.Fatal(err)
	}

	// Map the stub and a gs region.
	var e isa.Enc
	BuildEntryStub(&e, opts)
	if err := task.AS.MapFixed(0x20000, mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := task.AS.WriteAt(0x20000, e.Buf); err != nil {
		t.Fatal(err)
	}
	if err := task.AS.Protect(0x20000, mem.PageSize, mem.ProtRX); err != nil {
		t.Fatal(err)
	}
	gs, err := task.AS.MapAnon(GSSize, mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	task.CPU.GSBase = gs
	if err := InitGSRegion(task, gs); err != nil {
		t.Fatal(err)
	}
	return k, task
}

func TestBinderPassThrough(t *testing.T) {
	var seen []int64
	ip := FuncInterposer{
		OnEnter: func(c *Call) Action {
			seen = append(seen, c.Nr)
			return Continue
		},
	}
	k, task := buildHarness(t, ip, StubOpts{})
	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != task.Tgid {
		t.Errorf("exit = %d, want pid", task.ExitCode)
	}
	if len(seen) != 1 || seen[0] != kernel.SysGetpid {
		t.Errorf("interposer saw %v", seen)
	}
}

func TestBinderEmulateViaStub(t *testing.T) {
	ip := FuncInterposer{
		OnEnter: func(c *Call) Action {
			c.Ret = 777
			return Emulate
		},
	}
	k, task := buildHarness(t, ip, StubOpts{})
	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 777 {
		t.Errorf("exit = %d, want emulated 777", task.ExitCode)
	}
}

func TestBinderExitRewritesResult(t *testing.T) {
	ip := FuncInterposer{
		OnExit: func(c *Call) { c.Ret = c.Ret * 2 },
	}
	k, task := buildHarness(t, ip, StubOpts{})
	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 2*task.Tgid {
		t.Errorf("exit = %d, want doubled pid", task.ExitCode)
	}
}

func TestReadWriteSavedRegsAndCall(t *testing.T) {
	ip := FuncInterposer{
		OnEnter: func(c *Call) Action {
			// Swap getpid for gettid via the saved-register API.
			if c.Nr == kernel.SysGetpid {
				c.Nr = kernel.SysGettid
			}
			return Continue
		},
	}
	k, task := buildHarness(t, ip, StubOpts{})
	if err := k.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != task.ID {
		t.Errorf("exit = %d, want tid %d (nr rewrite)", task.ExitCode, task.ID)
	}
}

func TestCallStringHelpers(t *testing.T) {
	k := kernel.New(kernel.Config{})
	p, err := asm.Assemble(`
	_start:
		hlt
	str:
		.ascii "hello"
		.byte 0
	`, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.FromProgram(p, "_start")
	if err != nil {
		t.Fatal(err)
	}
	task, err := k.SpawnImage(img, "")
	if err != nil {
		t.Fatal(err)
	}
	c := &Call{Task: task}
	addr := asm.MustSymbol(p, "str")
	s, ok := c.ReadString(addr)
	if !ok || s != "hello" {
		t.Errorf("ReadString = %q, %v", s, ok)
	}
	if _, ok := c.ReadString(0xdead0000); ok {
		t.Error("ReadString from unmapped memory succeeded")
	}
	var buf [5]byte
	if err := c.ReadMem(addr, buf[:]); err != nil || string(buf[:]) != "hello" {
		t.Errorf("ReadMem = %q, %v", buf, err)
	}
	if err := c.WriteMem(addr, []byte("HELLO")); err != nil {
		t.Errorf("WriteMem: %v", err)
	}
	s, _ = c.ReadString(addr)
	if s != "HELLO" {
		t.Errorf("after WriteMem: %q", s)
	}
}

// TestReadStringChunks: ReadString reads page-bounded chunks, so a string
// may end on the last byte before an unmapped page, run across mapped
// pages and several chunks, and is refused past the cap or when
// it runs off the mapping unterminated.
func TestReadStringChunks(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, "_start:\n hlt\n")
	const base = 0x50000 // two mapped pages, then a hole
	if err := task.AS.MapFixed(base, 2*mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	end := uint64(base + 2*mem.PageSize)
	put := func(addr uint64, s string) {
		t.Helper()
		if err := task.AS.WriteAt(addr, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	c := &Call{Task: task}

	long := strings.Repeat("abcdefg", 700)[:maxStringLen-1] // the longest string accepted
	put(end-6, "hello\x00")
	put(base+100, long[:1000]+"\x00") // four chunks
	for _, tc := range []struct {
		name string
		addr uint64
		want string
	}{
		{"ends at the hole", end - 6, "hello"},
		{"terminator is the last mapped byte", end - 1, ""},
		{"several chunks", base + 100, long[:1000]},
	} {
		if s, ok := c.ReadString(tc.addr); !ok || s != tc.want {
			t.Errorf("%s: ReadString = %d bytes %.20q, %v; want %d bytes", tc.name, len(s), s, ok, len(tc.want))
		}
	}

	put(base, strings.Repeat("x", 2*mem.PageSize)) // no terminator anywhere
	if _, ok := c.ReadString(end - 10); ok {
		t.Error("ReadString ran off the mapping and succeeded")
	}
	put(base+8, long+"\x00")
	if s, ok := c.ReadString(base + 8); !ok || s != long {
		t.Errorf("a string of %d bytes: got %d bytes, %v", len(long), len(s), ok)
	}
	put(base+8, long+"y\x00")
	if _, ok := c.ReadString(base + 8); ok {
		t.Errorf("a string of %d bytes was accepted", len(long)+1)
	}
}

// TestCallStack: a task's in-flight calls nest, are recycled, belong to
// one mechanism and one task, and a task that resumes in a stub it never
// entered (a fork child) gets the synthetic call.
func TestCallStack(t *testing.T) {
	k := kernel.New(kernel.Config{})
	task, other := spawn(t, k, "_start:\n hlt\n"), spawn(t, k, "_start:\n hlt\n")
	mechA, mechB := NewBinder(Dummy{}), NewBinder(Dummy{})

	s := Pending(task, mechA)
	if Pending(task, mechA) != s {
		t.Error("a second lookup found a different stack")
	}
	if Pending(task, mechB) == s || Pending(other, mechA) == s {
		t.Error("stacks are shared between mechanisms or tasks")
	}
	if c := s.Top(task); c.Nr != -1 || c.Task != task {
		t.Errorf("Top of an empty stack = %+v, want the synthetic call", c)
	}
	s.Pop() // nothing in flight: no effect
	outer := s.Push(task)
	outer.Nr, outer.Ret = 1, 11
	inner := s.Push(task)
	if inner == outer || s.Depth() != 2 || s.Top(task) != inner {
		t.Fatalf("nested Push: depth %d, inner == outer: %v", s.Depth(), inner == outer)
	}
	s.Pop()
	if s.Top(task) != outer || outer.Nr != 1 {
		t.Error("Pop did not uncover the outer call intact")
	}
	again := s.Push(task)
	if again != inner {
		t.Error("Push allocated a new Call with a free one at hand")
	}
	if *again != (Call{Task: task}) {
		t.Errorf("a recycled Call carries its old contents: %+v", *again)
	}
}
