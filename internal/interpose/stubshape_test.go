package interpose

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

const (
	shapeCaller = 0x10000
	shapeStub   = 0x20000
	shapeGS     = 0x30000
	shapeStack  = 0x40000
)

// stubCPU maps the entry stub built with opts, a caller that calls it and
// halts, a gs region and a stack, on a bare CPU with the whole fast path.
func stubCPU(t *testing.T, opts StubOpts) *cpu.CPU {
	t.Helper()
	as := mem.NewAddressSpace()
	code := func(addr uint64, b []byte) {
		if err := as.MapFixed(addr, mem.PageSize, mem.ProtRW); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteAt(addr, b); err != nil {
			t.Fatal(err)
		}
		if err := as.Protect(addr, mem.PageSize, mem.ProtRX); err != nil {
			t.Fatal(err)
		}
	}
	var caller, stub isa.Enc
	caller.MovImm64(isa.RAX, shapeStub)
	caller.CallReg(isa.RAX)
	caller.Hlt()
	BuildEntryStub(&stub, opts)
	code(shapeCaller, caller.Buf)
	code(shapeStub, stub.Buf)
	for _, addr := range []uint64{shapeGS, shapeStack} {
		if err := as.MapFixed(addr, mem.PageSize, mem.ProtRW); err != nil {
			t.Fatal(err)
		}
	}
	var gs [GSSigretStack]byte
	binary.LittleEndian.PutUint64(gs[GSSelf:], shapeGS)
	binary.LittleEndian.PutUint64(gs[GSXSaveTop:], GSXSaveStack)
	if err := as.WriteAt(shapeGS, gs[:]); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(as)
	c.GSBase = shapeGS
	c.Regs[isa.RSP] = shapeStack + mem.PageSize
	return c
}

// TestStubSaveRestoreIsThreeStackRuns: for every StubOpts combination the
// fast engine retires the stub's register save/restore as three stack runs
// — fifteen pushes before the Enter hcall, seven reloads before the
// syscall, fifteen pops after the Exit hcall — once the stub is warm. A
// stub edit that breaks a run up (an instruction between two pushes, a
// reload off another register) falls off the fast path and fails here.
func TestStubSaveRestoreIsThreeStackRuns(t *testing.T) {
	stops := [4]cpu.Event{cpu.EvHcall, cpu.EvSyscall, cpu.EvHcall, cpu.EvHlt}
	for mask := 0; mask < 8; mask++ {
		opts := StubOpts{
			UseSUD: mask&1 != 0, SaveXState: mask&2 != 0, ProtectGS: mask&4 != 0,
			EnterHcall: 1, ExitHcall: 2,
		}
		t.Run(fmt.Sprintf("sud=%v/xstate=%v/mpk=%v", opts.UseSUD, opts.SaveXState, opts.ProtectGS), func(t *testing.T) {
			c := stubCPU(t, opts)
			var fused [4]uint64 // per stretch between stops, on the last pass
			// The first pass decodes and links the blocks; a run that starts
			// a block entered by a dispatched Step executes per instruction.
			for pass := 0; pass < 3; pass++ {
				c.RIP = shapeCaller
				for i, want := range stops {
					before := c.FusedStats().FusedStackInsts
					ev, _, _ := c.StepBlock(1 << 20)
					if ev != want {
						t.Fatalf("pass %d stop %d: event %v, want %v (fault: %v)", pass, i, ev, want, c.FaultErr)
					}
					fused[i] = c.FusedStats().FusedStackInsts - before
				}
			}
			if want := [4]uint64{15, 7, 0, 15}; fused != want {
				t.Errorf("fused stack instructions per stretch = %v, want %v", fused, want)
			}
		})
	}
}
