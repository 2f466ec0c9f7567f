package cpu

import (
	"errors"
	"testing"
	"testing/quick"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

const (
	codeBase  = 0x1000
	stackBase = 0x20000
	stackSize = 4 * mem.PageSize
)

// load builds a machine with code at codeBase and an initialized stack.
func load(t *testing.T, code []byte) *CPU {
	t.Helper()
	as := mem.NewAddressSpace()
	codeLen := (uint64(len(code)) + mem.PageSize - 1) &^ (mem.PageSize - 1)
	if codeLen == 0 {
		codeLen = mem.PageSize
	}
	if err := as.MapFixed(codeBase, codeLen, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(codeBase, code); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(codeBase, codeLen, mem.ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFixed(stackBase, stackSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.RIP = codeBase
	c.Regs[isa.RSP] = stackBase + stackSize
	return c
}

// loadRef is load on the reference engine.
func loadRef(t *testing.T, code []byte) *CPU {
	t.Helper()
	return cloneCPU(load(t, code))
}

// run steps until a non-EvNone event or the step limit.
func run(t *testing.T, c *CPU, limit int) Event {
	t.Helper()
	for i := 0; i < limit; i++ {
		if ev := c.Step(); ev != EvNone {
			return ev
		}
	}
	t.Fatalf("no terminal event within %d steps", limit)
	return EvNone
}

func TestArithmeticAndHalt(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RAX, 40)
	e.MovImm64(isa.RBX, 2)
	e.Add(isa.RAX, isa.RBX)
	e.Hlt()
	c := load(t, e.Buf)
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v, want hlt", ev)
	}
	if c.Regs[isa.RAX] != 42 {
		t.Errorf("rax = %d, want 42", c.Regs[isa.RAX])
	}
}

func TestLoopCountsCycles(t *testing.T) {
	// rcx = 10; loop { rcx--; } — 1 mov + 10*(addi+jnz) + hlt.
	var e isa.Enc
	e.MovImm64(isa.RCX, 10)
	loop := e.Len()
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Hlt()
	c := load(t, e.Buf)
	if ev := run(t, c, 100); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	wantInsns := uint64(1 + 10*2 + 1)
	if c.Cycles != wantInsns {
		t.Errorf("cycles = %d, want %d", c.Cycles, wantInsns)
	}
}

func TestSyscallClobbersRCXandR11(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RAX, 39) // getpid
	e.MovImm64(isa.RCX, 0xAAAA)
	e.MovImm64(isa.R11, 0xBBBB)
	e.Syscall()
	c := load(t, e.Buf)
	ev := run(t, c, 10)
	if ev != EvSyscall {
		t.Fatalf("event = %v, want syscall", ev)
	}
	wantRIP := uint64(codeBase) + 10 + 10 + 10 + 2
	if c.RIP != wantRIP {
		t.Errorf("rip = %#x, want %#x", c.RIP, wantRIP)
	}
	if c.Regs[isa.RCX] != wantRIP {
		t.Errorf("rcx = %#x, want return rip %#x (syscall must clobber rcx)", c.Regs[isa.RCX], wantRIP)
	}
	if c.Regs[isa.R11] == 0xBBBB {
		t.Error("r11 not clobbered by syscall")
	}
	if c.Regs[isa.RAX] != 39 {
		t.Errorf("rax = %d, want 39", c.Regs[isa.RAX])
	}
}

func TestCallRaxPushesReturnAddress(t *testing.T) {
	// mov rax, target; call rax; hlt ... target: hlt
	var e isa.Enc
	target := uint64(codeBase + 64)
	e.MovImm64(isa.RAX, int64(target))
	e.CallReg(isa.RAX)
	afterCall := uint64(codeBase) + uint64(e.Len())
	e.Hlt()
	for e.Len() < 64 {
		e.Nop(1)
	}
	e.Hlt() // at target
	c := load(t, e.Buf)
	if ev := run(t, c, 10); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.RIP != target+1 {
		t.Errorf("rip = %#x, want %#x (hlt at target)", c.RIP, target+1)
	}
	ret, err := c.AS.ReadU64(c.Regs[isa.RSP])
	if err != nil {
		t.Fatal(err)
	}
	if ret != afterCall {
		t.Errorf("pushed return addr = %#x, want %#x", ret, afterCall)
	}
}

func TestCallRet(t *testing.T) {
	var e isa.Enc
	e.Call(64 - 5) // call fn at +64 from start (call is at offset 0, len 5)
	e.MovImm64(isa.RBX, 7)
	e.Hlt()
	for e.Len() < 64 {
		e.Nop(1)
	}
	e.MovImm64(isa.RAX, 5)
	e.Ret()
	c := load(t, e.Buf)
	if ev := run(t, c, 100); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.Regs[isa.RAX] != 5 || c.Regs[isa.RBX] != 7 {
		t.Errorf("rax=%d rbx=%d, want 5,7", c.Regs[isa.RAX], c.Regs[isa.RBX])
	}
	if c.Regs[isa.RSP] != stackBase+stackSize {
		t.Errorf("stack imbalance: rsp=%#x", c.Regs[isa.RSP])
	}
}

func TestPushPopXchg(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RAX, 1)
	e.MovImm64(isa.RBX, 2)
	e.Push(isa.RAX)
	e.Push(isa.RBX)
	e.Pop(isa.RAX) // rax=2
	e.Pop(isa.RBX) // rbx=1
	// xchg [rsp-8] with rcx via pointer in rdx
	e.MovImm64(isa.RDX, stackBase)
	e.MovImm64(isa.RCX, 99)
	e.Xchg(isa.RDX, isa.RCX) // mem[stackBase] (0) <-> rcx
	e.Hlt()
	c := load(t, e.Buf)
	if ev := run(t, c, 20); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.Regs[isa.RAX] != 2 || c.Regs[isa.RBX] != 1 {
		t.Errorf("rax=%d rbx=%d, want 2,1", c.Regs[isa.RAX], c.Regs[isa.RBX])
	}
	if c.Regs[isa.RCX] != 0 {
		t.Errorf("xchg old value: rcx=%d, want 0", c.Regs[isa.RCX])
	}
	v, _ := c.AS.ReadU64(stackBase)
	if v != 99 {
		t.Errorf("xchg stored %d, want 99", v)
	}
}

func TestConditionalJumps(t *testing.T) {
	tests := []struct {
		name string
		a, b int64
		emit func(e *isa.Enc, rel int64)
		take bool
	}{
		{"jz eq", 5, 5, func(e *isa.Enc, r int64) { e.Jz(r) }, true},
		{"jz ne", 5, 6, func(e *isa.Enc, r int64) { e.Jz(r) }, false},
		{"jnz ne", 5, 6, func(e *isa.Enc, r int64) { e.Jnz(r) }, true},
		{"jl lt", 3, 5, func(e *isa.Enc, r int64) { e.Jl(r) }, true},
		{"jl gt", 7, 5, func(e *isa.Enc, r int64) { e.Jl(r) }, false},
		{"jg gt", 7, 5, func(e *isa.Enc, r int64) { e.Jg(r) }, true},
		{"jle eq", 5, 5, func(e *isa.Enc, r int64) { e.Jle(r) }, true},
		{"jge lt", 3, 5, func(e *isa.Enc, r int64) { e.Jge(r) }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var e isa.Enc
			e.MovImm64(isa.RAX, tt.a)
			e.MovImm64(isa.RBX, tt.b)
			e.Cmp(isa.RAX, isa.RBX)
			tt.emit(&e, 11) // skip the next mov64+hlt
			e.MovImm64(isa.RDI, 1)
			e.Hlt()
			e.MovImm64(isa.RDI, 2)
			e.Hlt()
			c := load(t, e.Buf)
			if ev := run(t, c, 20); ev != EvHlt {
				t.Fatalf("event = %v", ev)
			}
			want := uint64(1)
			if tt.take {
				want = 2
			}
			if c.Regs[isa.RDI] != want {
				t.Errorf("rdi = %d, want %d", c.Regs[isa.RDI], want)
			}
		})
	}
}

func TestListing1Pattern(t *testing.T) {
	// The glibc pthread-init pattern from the paper's Listing 1:
	// xmm0 is populated before two syscalls and read after them.
	var e isa.Enc
	e.MovImm64(isa.R12, stackBase+128)
	e.MovQ2X(0, isa.R12)
	e.Punpck(0)
	e.MovImm64(isa.RAX, 218) // set_tid_address
	e.Syscall()
	e.MovImm64(isa.RAX, 273) // set_robust_list
	e.Syscall()
	e.MovupsStore(isa.R12, 0, 0)
	e.Hlt()
	c := load(t, e.Buf)

	for i := 0; i < 2; i++ {
		if ev := run(t, c, 20); ev != EvSyscall {
			t.Fatalf("event = %v, want syscall", ev)
		}
		// Kernel preserves xstate here (no interposer), just continue.
	}
	if ev := run(t, c, 20); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	lo, _ := c.AS.ReadU64(stackBase + 128)
	hi, _ := c.AS.ReadU64(stackBase + 136)
	if lo != stackBase+128 || hi != stackBase+128 {
		t.Errorf("movups wrote %#x,%#x, want both %#x", lo, hi, uint64(stackBase+128))
	}
}

func TestXStateMarshalRoundTrip(t *testing.T) {
	var x XState
	for i := range x.X {
		for j := range x.X[i] {
			x.X[i][j] = byte(i*16 + j)
		}
	}
	for i := range x.X87 {
		x.X87[i] = uint64(i) * 0x1111111111111111
	}
	x.Top = 5
	var buf [XStateSize]byte
	x.Marshal(buf[:])
	var y XState
	y.Unmarshal(buf[:])
	if x != y {
		t.Error("xstate marshal/unmarshal mismatch")
	}
}

func TestXsaveXrstor(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RAX, 0x1234)
	e.MovQ2X(3, isa.RAX)
	e.MovImm64(isa.RSI, stackBase)
	e.Xsave(isa.RSI)
	e.MovImm64(isa.RBX, 0x9999)
	e.MovQ2X(3, isa.RBX) // clobber xmm3
	e.Xrstor(isa.RSI)
	e.MovX2Q(isa.RDI, 3)
	e.Hlt()
	c := load(t, e.Buf)
	c.GSBase = stackBase // gs region = start of stack mapping
	if ev := run(t, c, 20); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.Regs[isa.RDI] != 0x1234 {
		t.Errorf("xrstor restored %#x, want 0x1234", c.Regs[isa.RDI])
	}
	// xsave/xrstor must charge their configured cost.
	if c.Cycles < DefaultCosts().Xsave+DefaultCosts().Xrstor {
		t.Errorf("cycles = %d, want at least xsave+xrstor", c.Cycles)
	}
}

func TestGsOps(t *testing.T) {
	var e isa.Enc
	e.GsStoreBI(7, 1)             // gs[7] = 1
	e.GsMovB(8, 7)                // gs[8] = gs[7]
	e.MovImm64(isa.RAX, 42)       //
	e.GsStore(16, isa.RAX)        // gs[16] = 42
	e.GsMov(24, 16)               // gs[24] = gs[16]
	e.GsAddI(24, -2)              // gs[24] = 40
	e.GsLoad(isa.RBX, 24)         // rbx = 40
	e.GsLoadB(isa.RCX, 8)         // rcx = 1
	e.GsPush(16)                  // push 42
	e.Pop(isa.RDX)                // rdx = 42
	e.MovImm64(isa.RSI, 7)        //
	e.GsLoadIdxB(isa.R9, isa.RSI) // r9 = gs[7] = 1
	e.Hlt()
	c := load(t, e.Buf)
	c.GSBase = stackBase
	if ev := run(t, c, 30); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if c.Regs[isa.RBX] != 40 || c.Regs[isa.RCX] != 1 || c.Regs[isa.RDX] != 42 || c.Regs[isa.R9] != 1 {
		t.Errorf("rbx=%d rcx=%d rdx=%d r9=%d", c.Regs[isa.RBX], c.Regs[isa.RCX], c.Regs[isa.RDX], c.Regs[isa.R9])
	}
}

func TestExecFaultOnNXPage(t *testing.T) {
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.RIP = 0x1000
	if ev := c.Step(); ev != EvFault {
		t.Fatalf("event = %v, want fault", ev)
	}
	var f *mem.Fault
	if !errors.As(c.FaultErr, &f) || f.Kind != mem.AccessExec {
		t.Errorf("fault = %v, want exec fault", c.FaultErr)
	}
	if c.RIP != 0x1000 {
		t.Errorf("rip moved to %#x on fault", c.RIP)
	}
}

func TestHcallEvent(t *testing.T) {
	var e isa.Enc
	e.Hcall(1234)
	c := load(t, e.Buf)
	if ev := c.Step(); ev != EvHcall {
		t.Fatalf("event = %v", ev)
	}
	if c.HcallID != 1234 {
		t.Errorf("hcall id = %d", c.HcallID)
	}
}

func TestInsnHookSeesEveryInstruction(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RAX, 1)
	e.Nop(3)
	e.Syscall()
	c := load(t, e.Buf)
	var got []string
	c.Hook = func(pc uint64, in isa.Inst) { got = append(got, in.String()) }
	run(t, c, 10)
	want := []string{"mov64 rax, 1", "nop", "nop", "nop", "syscall"}
	if len(got) != len(want) {
		t.Fatalf("hook saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("hook[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFlagsPackUnpackQuick(t *testing.T) {
	f := func(zf, sf bool) bool {
		c := &CPU{ZF: zf, SF: sf}
		w := c.Flags()
		var d CPU
		d.SetFlags(w)
		return d.ZF == zf && d.SF == sf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftAndBitOps(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RAX, 0b1010)
	e.ShlImm(isa.RAX, 4) // 0b10100000
	e.ShrImm(isa.RAX, 1) // 0b1010000
	e.MovImm64(isa.RBX, 0b1111000)
	e.And(isa.RAX, isa.RBX) // 0b1010000
	e.MovImm64(isa.RCX, 0b0000111)
	e.Or(isa.RAX, isa.RCX)  // 0b1010111
	e.Xor(isa.RAX, isa.RAX) // 0, sets ZF
	e.Hlt()
	c := load(t, e.Buf)
	if ev := run(t, c, 20); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.Regs[isa.RAX] != 0 || !c.ZF {
		t.Errorf("rax=%d zf=%v", c.Regs[isa.RAX], c.ZF)
	}
}

func TestFldFstStack(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RAX, 11)
	e.Fld(isa.RAX)
	e.MovImm64(isa.RAX, 22)
	e.Fld(isa.RAX)
	e.Fst(isa.RBX) // 22
	e.Fst(isa.RCX) // 11
	e.Hlt()
	c := load(t, e.Buf)
	if ev := run(t, c, 20); ev != EvHlt {
		t.Fatalf("event = %v", ev)
	}
	if c.Regs[isa.RBX] != 22 || c.Regs[isa.RCX] != 11 {
		t.Errorf("rbx=%d rcx=%d, want 22,11", c.Regs[isa.RBX], c.Regs[isa.RCX])
	}
}
