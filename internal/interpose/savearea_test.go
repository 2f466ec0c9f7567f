package interpose

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
)

// saveArea is a task parked inside an imaginary stub: a gs region, and a
// save area at RSP whose slot for register r holds 0x1000+r.
type saveArea struct {
	b    *Binder
	hc   *kernel.HcallCtx
	task *kernel.Task
}

const saveAreaBase = 0x30000

func slotSeed(r isa.Reg) uint64 { return 0x1000 + uint64(r) }

// spawn assembles src at 0x10000 and spawns it in k.
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
	task, err := k.SpawnImage(img, kernel.SpawnOpts{Name: t.Name()})
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// newSaveArea parks a task with its save area on one page of the given
// protection.
func newSaveArea(t *testing.T, ip Interposer, prot mem.Prot) *saveArea {
	t.Helper()
	return newSaveAreaAt(t, ip, saveAreaBase+0x800, prot, prot)
}

// newSplitSaveArea parks a task whose save area straddles two pages: the
// RAX slot (and the return address) on the upper one, every other slot on
// the lower one. With the lower page read-only, a store to any slot but
// RAX faults — which is how these tests see a store that should not have
// happened.
func newSplitSaveArea(t *testing.T, ip Interposer, lo, hi mem.Prot) *saveArea {
	t.Helper()
	return newSaveAreaAt(t, ip, saveAreaBase+mem.PageSize-uint64(SavedRegOffset(isa.RAX)), lo, hi)
}

func newSaveAreaAt(t *testing.T, ip Interposer, rsp uint64, lo, hi mem.Prot) *saveArea {
	t.Helper()
	k := kernel.New(kernel.Config{})
	task := spawn(t, k, "_start:\n hlt\n")
	gs, err := task.AS.MapAnon(GSSize, mem.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	task.CPU.GSBase = gs
	if err := InitGSRegion(task, gs); err != nil {
		t.Fatal(err)
	}
	for i, prot := range []mem.Prot{lo, hi} {
		if err := task.AS.MapFixed(saveAreaBase+uint64(i)*mem.PageSize, mem.PageSize, prot); err != nil {
			t.Fatal(err)
		}
	}
	task.CPU.Regs[isa.RSP] = rsp
	for _, r := range saveOrder {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], slotSeed(r))
		if err := task.AS.WriteForce(rsp+uint64(SavedRegOffset(r)), b[:]); err != nil {
			t.Fatal(err)
		}
	}
	return &saveArea{b: NewBinder(ip), hc: &kernel.HcallCtx{Task: task, K: k}, task: task}
}

// wantSlots checks every slot: seeded value unless overridden.
func (s *saveArea) wantSlots(t *testing.T, changed map[isa.Reg]uint64) {
	t.Helper()
	for _, r := range saveOrder {
		got, err := ReadSavedReg(s.task, r)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := changed[r]
		if !ok {
			want = slotSeed(r)
		}
		if got != want {
			t.Errorf("slot %v = %#x, want %#x", r, got, want)
		}
	}
}

// protectUpper changes the protection of the page holding the RAX slot
// of a split save area.
func (s *saveArea) protectUpper(t *testing.T, prot mem.Prot) {
	t.Helper()
	if err := s.task.AS.Protect(saveAreaBase+mem.PageSize, mem.PageSize, prot); err != nil {
		t.Fatal(err)
	}
}

func TestCallSpanCoversTheCallRegisters(t *testing.T) {
	lo, hi := SavedRegOffset(isa.RAX), SavedRegOffset(isa.RAX)+8
	for _, r := range argRegs {
		off := SavedRegOffset(r)
		lo, hi = min(lo, off), max(hi, off+8)
	}
	if lo != callSpanOff || hi != callSpanOff+callSpanLen {
		t.Errorf("call registers span [%d,%d), constants say [%d,%d)", lo, hi, callSpanOff, callSpanOff+callSpanLen)
	}
}

func TestReadCallDecodesEverySlot(t *testing.T) {
	for name, s := range map[string]*saveArea{
		"one page":     newSaveArea(t, Dummy{}, mem.ProtRW),
		"across pages": newSplitSaveArea(t, Dummy{}, mem.ProtRW, mem.ProtRW),
	} {
		c := &Call{Task: s.task}
		if err := ReadCall(c); err != nil {
			t.Fatal(err)
		}
		if c.Nr != int64(slotSeed(isa.RAX)) {
			t.Errorf("%s: Nr = %#x", name, c.Nr)
		}
		for i, r := range []isa.Reg{isa.RDI, isa.RSI, isa.RDX, isa.R10, isa.R8, isa.R9} {
			if c.Args[i] != slotSeed(r) {
				t.Errorf("%s: Args[%d] = %#x, want %v's %#x", name, i, c.Args[i], r, slotSeed(r))
			}
		}
	}
}

// TestDummyLeavesTheSaveAreaAlone: the benchmark interposer changes
// nothing, so Enter+Exit store nothing — a save area that cannot take a
// store at all is no obstacle.
func TestDummyLeavesTheSaveAreaAlone(t *testing.T) {
	s := newSaveArea(t, Dummy{}, mem.ProtRead)
	if err := s.b.Enter(s.hc); err != nil {
		t.Errorf("Enter: %v", err)
	}
	if err := s.b.Exit(s.hc); err != nil {
		t.Errorf("Exit: %v", err)
	}
	s.wantSlots(t, nil)
}

func TestRewritesStoreOnlyWhatChanged(t *testing.T) {
	exit := func(c *Call) { c.Ret = -38 }
	// Every slot writable: what the interposer changed is what is there.
	s := newSaveArea(t, FuncInterposer{
		OnEnter: func(c *Call) Action {
			c.Nr = 999
			c.Args[2] = 0xabcdef
			c.Args[4] = slotSeed(isa.R8) // assigned, not changed
			return Continue
		},
		OnExit: exit,
	}, mem.ProtRW)
	if err := s.b.Enter(s.hc); err != nil {
		t.Fatal(err)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: 999, isa.RDX: 0xabcdef})
	if err := s.b.Exit(s.hc); err != nil {
		t.Fatal(err)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: uint64(1<<64 - 38), isa.RDX: 0xabcdef})

	// Only the RAX slot writable: rewriting the number and the result
	// works, because no argument slot is stored to — not even the one
	// that was assigned its old value.
	s = newSplitSaveArea(t, FuncInterposer{
		OnEnter: func(c *Call) Action {
			c.Nr = 999
			c.Args[4] = slotSeed(isa.R8)
			return Continue
		},
		OnExit: exit,
	}, mem.ProtRead, mem.ProtRW)
	if err := s.b.Enter(s.hc); err != nil {
		t.Fatalf("Enter stored to an argument slot it did not change: %v", err)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: 999})
	if err := s.b.Exit(s.hc); err != nil {
		t.Fatal(err)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: uint64(1<<64 - 38)})
}

func TestEmulateStoresResultAndFlag(t *testing.T) {
	ip := FuncInterposer{OnEnter: func(c *Call) Action {
		c.Ret = 777
		return Emulate
	}}
	s := newSplitSaveArea(t, ip, mem.ProtRead, mem.ProtRW)
	if err := s.b.Enter(s.hc); err != nil {
		t.Fatal(err)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: 777})
	var flag [1]byte
	if err := s.task.AS.ReadForce(s.task.CPU.GSBase+GSEmulate, flag[:]); err != nil || flag[0] != 1 {
		t.Errorf("emulate flag = %d, %v", flag[0], err)
	}
	// The result Exit reads back is the emulated one, and an Exit that
	// keeps it stores nothing: the slot may have gone read-only meanwhile.
	s.protectUpper(t, mem.ProtRead)
	if err := s.b.Exit(s.hc); err != nil {
		t.Errorf("Exit stored an unchanged result: %v", err)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: 777})
}

// TestBadSaveAreaIsAnError: the payloads still fail — and the kernel
// still kills the task with SIGABRT — when the save area cannot be read,
// or cannot take a store the interposer asked for. A read-only save area
// under an interposer that changes nothing is no error (above). The stub
// cannot get there (it pushed the area itself).
func TestBadSaveAreaIsAnError(t *testing.T) {
	rewrite := FuncInterposer{
		OnEnter: func(c *Call) Action { c.Args[0]++; return Continue },
		OnExit:  func(c *Call) { c.Ret++ },
	}
	t.Run("unreadable", func(t *testing.T) {
		s := newSaveArea(t, Dummy{}, mem.ProtRW)
		// The span's last slot (RAX) falls off the mapped pages.
		s.task.CPU.Regs[isa.RSP] = saveAreaBase + 2*mem.PageSize - 112
		if err := s.b.Enter(s.hc); err == nil {
			t.Error("Enter read a save area running off the page")
		}
		if err := s.b.Exit(s.hc); err == nil {
			t.Error("Exit read an unmapped RAX slot")
		}
	})
	t.Run("unwritable", func(t *testing.T) {
		s := newSaveArea(t, rewrite, mem.ProtRead)
		if err := s.b.Enter(s.hc); err == nil {
			t.Error("Enter stored a rewritten argument into a read-only page")
		}
		if err := s.b.Exit(s.hc); err == nil {
			t.Error("Exit stored a rewritten result into a read-only page")
		}
		s.wantSlots(t, nil)
	})

	// End to end: a guest that reaches the hcalls with RSP somewhere
	// hopeless dies of SIGABRT instead of running on.
	for _, tc := range []struct {
		name string
		ip   Interposer
		rsp  uint64
		prot mem.Prot
	}{
		{"kill/unmapped", Dummy{}, 0xdead0000, 0},
		{"kill/read-only", rewrite, saveAreaBase + 0x800, mem.ProtRead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernel.New(kernel.Config{})
			enter := k.RegisterHcall(NewBinder(tc.ip).Enter)
			task := spawn(t, k, fmt.Sprintf(`
			_start:
				mov64 rsp, %d
				hcall %d
				mov64 rax, 60
				mov64 rdi, 0
				syscall
			`, tc.rsp, enter))
			if tc.prot != 0 {
				if err := task.AS.MapFixed(saveAreaBase, mem.PageSize, tc.prot); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.Run(1_000_000); err != nil {
				t.Fatal(err)
			}
			if task.ExitCode != 128+kernel.SIGABRT {
				t.Errorf("exit = %d, want death by SIGABRT (%d)", task.ExitCode, 128+kernel.SIGABRT)
			}
		})
	}
}
