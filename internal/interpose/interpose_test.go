package interpose

import (
	"testing"

	"lazypoline/internal/isa"
)

func TestSavedRegOffsets(t *testing.T) {
	// The stub pushes RAX first and R15 last, so R15 is at [rsp+0] and
	// RAX at [rsp+112]; the return address sits just above.
	if off := SavedRegOffset(isa.R15); off != 0 {
		t.Errorf("r15 offset = %d", off)
	}
	if off := SavedRegOffset(isa.RAX); off != 112 {
		t.Errorf("rax offset = %d", off)
	}
	if off := SavedRegOffset(isa.RDI); off != 64 {
		t.Errorf("rdi offset = %d", off)
	}
	if off := SavedRegOffset(isa.RSP); off != -1 {
		t.Errorf("rsp must not be in the save area, got %d", off)
	}
	if SavedRetAddrOffset != 120 {
		t.Errorf("return address offset = %d", SavedRetAddrOffset)
	}
	// All 15 saved registers have distinct offsets in [0,112].
	seen := map[int64]bool{}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r == isa.RSP {
			continue
		}
		off := SavedRegOffset(r)
		if off < 0 || off > 112 || off%8 != 0 {
			t.Errorf("%v offset %d out of range", r, off)
		}
		if seen[off] {
			t.Errorf("duplicate offset %d", off)
		}
		seen[off] = true
	}
}

// TestSavedRegOffsetTable: the offset table answers for every register
// value what a scan of saveOrder does.
func TestSavedRegOffsetTable(t *testing.T) {
	for r := 0; r <= 255; r++ {
		want := int64(-1)
		for i, sr := range saveOrder {
			if sr == isa.Reg(r) {
				want = int64(len(saveOrder)-1-i) * 8
			}
		}
		if got := SavedRegOffset(isa.Reg(r)); got != want {
			t.Errorf("SavedRegOffset(%d) = %d, scan of saveOrder says %d", r, got, want)
		}
	}
}

func TestGSLayoutInvariants(t *testing.T) {
	// The control words must not overlap the stacks, and everything must
	// fit in one page.
	if GSSigretStack <= GSSigretTop {
		t.Error("sigreturn stack overlaps control words")
	}
	if GSXSaveStack < GSSigretStackMax {
		t.Error("xstate stack overlaps sigreturn stack")
	}
	if GSSudScratch < GSXSaveStack+6*512 {
		t.Error("SUD scratch overlaps the xstate stack")
	}
	if GSSudScratch+7*8 > GSSize {
		t.Error("gs region overflows its page")
	}
}

func TestStubOptionsChangeCode(t *testing.T) {
	emit := func(opts StubOpts) []byte {
		var e isa.Enc
		BuildEntryStub(&e, opts)
		return e.Buf
	}
	plain := emit(StubOpts{EnterHcall: 1, ExitHcall: 2})
	sudStub := emit(StubOpts{UseSUD: true, EnterHcall: 1, ExitHcall: 2})
	xsaveStub := emit(StubOpts{SaveXState: true, EnterHcall: 1, ExitHcall: 2})
	if len(sudStub) <= len(plain) {
		t.Error("SUD variant should add selector flips")
	}
	if len(xsaveStub) <= len(plain) {
		t.Error("xstate variant should add save/restore sequences")
	}
	// Every stub decodes cleanly from start to end.
	for _, code := range [][]byte{plain, sudStub, xsaveStub} {
		for off := 0; off < len(code); {
			in, err := isa.Decode(code[off:])
			if err != nil {
				t.Fatalf("stub not decodable at %d: %v", off, err)
			}
			off += in.Len
		}
	}
}

func TestStubContainsExactlyOneSyscall(t *testing.T) {
	// The entry stub holds the only genuine SYSCALL executed on the
	// application's behalf.
	var e isa.Enc
	BuildEntryStub(&e, StubOpts{UseSUD: true, SaveXState: true, EnterHcall: 1, ExitHcall: 2})
	count := 0
	for off := 0; off < len(e.Buf); {
		in, err := isa.Decode(e.Buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		if in.Mnem == isa.MSyscall {
			count++
		}
		off += in.Len
	}
	if count != 1 {
		t.Errorf("stub contains %d syscall instructions, want 1", count)
	}
}

func TestDummyAndFuncInterposer(t *testing.T) {
	var d Dummy
	c := &Call{Nr: 1}
	if d.Enter(c) != Continue {
		t.Error("Dummy must continue")
	}
	d.Exit(c)

	entered, exited := false, false
	f := FuncInterposer{
		OnEnter: func(*Call) Action { entered = true; return Emulate },
		OnExit:  func(*Call) { exited = true },
	}
	if f.Enter(c) != Emulate {
		t.Error("FuncInterposer ignored OnEnter")
	}
	f.Exit(c)
	if !entered || !exited {
		t.Error("hooks not invoked")
	}
	// Nil hooks are fine.
	var empty FuncInterposer
	if empty.Enter(c) != Continue {
		t.Error("nil OnEnter should continue")
	}
	empty.Exit(c)
}
