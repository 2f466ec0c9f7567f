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

func newSaveArea(t *testing.T, ip Interposer, prot mem.Prot) *saveArea {
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
	if err := task.AS.MapFixed(saveAreaBase, mem.PageSize, prot); err != nil {
		t.Fatal(err)
	}
	task.CPU.Regs[isa.RSP] = saveAreaBase + 0x800
	for _, r := range saveOrder {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], slotSeed(r))
		if err := task.AS.WriteForce(saveAreaBase+0x800+uint64(SavedRegOffset(r)), b[:]); err != nil {
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

// stores counts page stores in the task's address space since the last
// call: every locked write bumps one generation per page it touches.
func (s *saveArea) stores() func() uint64 {
	base := s.task.AS.Stats().Generations
	return func() uint64 { return s.task.AS.Stats().Generations - base }
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
	s := newSaveArea(t, Dummy{}, mem.ProtRW)
	c, err := ReadCall(s.task)
	if err != nil {
		t.Fatal(err)
	}
	if c.Nr != int64(slotSeed(isa.RAX)) {
		t.Errorf("Nr = %#x", c.Nr)
	}
	for i, r := range []isa.Reg{isa.RDI, isa.RSI, isa.RDX, isa.R10, isa.R8, isa.R9} {
		if c.Args[i] != slotSeed(r) {
			t.Errorf("Args[%d] = %#x, want %v's %#x", i, c.Args[i], r, slotSeed(r))
		}
	}
	if c.Task != s.task {
		t.Error("Call.Task not set")
	}
}

// TestDummyLeavesTheSaveAreaAlone: the benchmark interposer changes
// nothing, so Enter+Exit store nothing — the save-area page keeps its
// generation, and with it every D-TLB handle on the stack page stays
// valid across the syscall.
func TestDummyLeavesTheSaveAreaAlone(t *testing.T) {
	s := newSaveArea(t, Dummy{}, mem.ProtRW)
	h, ok := s.task.AS.PageForAccess(saveAreaBase >> mem.PageShift)
	if !ok {
		t.Fatal("save-area page unmapped")
	}
	stores := s.stores()
	if err := s.b.Enter(s.hc); err != nil {
		t.Fatal(err)
	}
	if err := s.b.Exit(s.hc); err != nil {
		t.Fatal(err)
	}
	if !h.Valid() {
		t.Error("save-area page generation moved under Dummy")
	}
	if n := stores(); n != 0 {
		t.Errorf("Dummy caused %d page stores", n)
	}
	s.wantSlots(t, nil)
}

func TestRewritesStoreOnlyWhatChanged(t *testing.T) {
	ip := FuncInterposer{
		OnEnter: func(c *Call) Action {
			c.Nr = 999
			c.Args[2] = 0xabcdef
			c.Args[4] = slotSeed(isa.R8) // assigned, not changed
			return Continue
		},
		OnExit: func(c *Call) { c.Ret = -38 },
	}
	s := newSaveArea(t, ip, mem.ProtRW)
	stores := s.stores()
	if err := s.b.Enter(s.hc); err != nil {
		t.Fatal(err)
	}
	if n := stores(); n != 2 {
		t.Errorf("Enter made %d stores, want 2 (Nr and Args[2])", n)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: 999, isa.RDX: 0xabcdef})

	stores = s.stores()
	if err := s.b.Exit(s.hc); err != nil {
		t.Fatal(err)
	}
	if n := stores(); n != 1 {
		t.Errorf("Exit made %d stores, want 1 (the rewritten result)", n)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: uint64(1<<64 - 38), isa.RDX: 0xabcdef})
}

func TestEmulateStoresResultAndFlag(t *testing.T) {
	ip := FuncInterposer{OnEnter: func(c *Call) Action {
		c.Ret = 777
		return Emulate
	}}
	s := newSaveArea(t, ip, mem.ProtRW)
	stores := s.stores()
	if err := s.b.Enter(s.hc); err != nil {
		t.Fatal(err)
	}
	if n := stores(); n != 2 {
		t.Errorf("emulating Enter made %d stores, want 2 (RAX slot and the flag)", n)
	}
	s.wantSlots(t, map[isa.Reg]uint64{isa.RAX: 777})
	var flag [1]byte
	if err := s.task.AS.ReadForce(s.task.CPU.GSBase+GSEmulate, flag[:]); err != nil || flag[0] != 1 {
		t.Errorf("emulate flag = %d, %v", flag[0], err)
	}
	// The result Exit reads back is the emulated one, and an Exit that
	// keeps it stores nothing.
	stores = s.stores()
	if err := s.b.Exit(s.hc); err != nil {
		t.Fatal(err)
	}
	if n := stores(); n != 0 {
		t.Errorf("Exit made %d stores", n)
	}
}

// TestBadSaveAreaIsAnError: the payloads still fail — and the kernel
// still kills the task with SIGABRT — when the save area cannot be read,
// or cannot take a store the interposer asked for. A read-only save area
// under an interposer that changes nothing is no longer an error: nothing
// is stored. The stub cannot get there (it pushed the area itself).
func TestBadSaveAreaIsAnError(t *testing.T) {
	rewrite := FuncInterposer{
		OnEnter: func(c *Call) Action { c.Args[0]++; return Continue },
		OnExit:  func(c *Call) { c.Ret++ },
	}
	t.Run("unreadable", func(t *testing.T) {
		s := newSaveArea(t, Dummy{}, mem.ProtRW)
		// The span's last slot (RAX) falls off the mapped page.
		s.task.CPU.Regs[isa.RSP] = saveAreaBase + mem.PageSize - 112
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
	t.Run("read-only and unchanged", func(t *testing.T) {
		s := newSaveArea(t, Dummy{}, mem.ProtRead)
		if err := s.b.Enter(s.hc); err != nil {
			t.Errorf("Enter: %v", err)
		}
		if err := s.b.Exit(s.hc); err != nil {
			t.Errorf("Exit: %v", err)
		}
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
