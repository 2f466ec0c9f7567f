package cpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// runBlocks drives a CPU with StepBlock batches of the given size until a
// non-EvNone event, mirroring how the kernel consumes a quantum.
func runBlocks(t *testing.T, c *CPU, batch uint64, limit int) Event {
	t.Helper()
	for i := 0; i < limit; i++ {
		ev, steps, _ := c.StepBlock(batch)
		if steps == 0 {
			t.Fatal("StepBlock retired zero instructions")
		}
		if ev != EvNone {
			return ev
		}
	}
	t.Fatalf("no event after %d batches", limit)
	return EvNone
}

// mixedProgram exercises straight-line runs, NOP batches, a loop with
// memory traffic, and ends in a syscall — every accounting rule the
// superblock loop must preserve.
func mixedProgram() []byte {
	var e isa.Enc
	e.MovImm64(isa.RCX, 25)
	loop := e.Len()
	e.Nop(7)
	e.MovImm64(isa.RAX, stackBase)
	e.Store(isa.RAX, 0, isa.RCX)
	e.Load(isa.RDX, isa.RAX, 0)
	e.Add(isa.RBX, isa.RDX)
	e.Nop(9)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Syscall()
	return e.Buf
}

// TestStepBlockMatchesStep: for a spread of batch sizes, batched
// execution must retire the same instruction trace with the same cycle
// count and register file as per-instruction stepping — including the
// ceil(n/8) NOP-batch accounting.
func TestStepBlockMatchesStep(t *testing.T) {
	type result struct {
		trace  []string
		cycles uint64
		regs   [isa.NumRegs]uint64
	}
	exec := func(batch uint64) result {
		c := load(t, mixedProgram())
		var r result
		c.Hook = func(pc uint64, in isa.Inst) {
			r.trace = append(r.trace, fmt.Sprintf("%#x %s", pc, in))
		}
		var ev Event
		if batch == 0 {
			ev = run(t, c, 5000)
		} else {
			ev = runBlocks(t, c, batch, 5000)
		}
		if ev != EvSyscall {
			t.Fatalf("batch %d: event = %v (fault: %v)", batch, ev, c.FaultErr)
		}
		r.cycles, r.regs = c.Cycles, c.Regs
		return r
	}
	ref := exec(0) // per-instruction Step loop
	for _, batch := range []uint64{1, 2, 3, 7, 64, 20000} {
		got := exec(batch)
		if got.cycles != ref.cycles {
			t.Errorf("batch %d: cycles = %d, want %d", batch, got.cycles, ref.cycles)
		}
		if got.regs != ref.regs {
			t.Errorf("batch %d: register files differ", batch)
		}
		if len(got.trace) != len(ref.trace) {
			t.Fatalf("batch %d: trace length %d, want %d", batch, len(got.trace), len(ref.trace))
		}
		for i := range got.trace {
			if got.trace[i] != ref.trace[i] {
				t.Fatalf("batch %d: trace[%d] = %q, want %q", batch, i, got.trace[i], ref.trace[i])
			}
		}
	}
}

// TestStepBlockBudget: StepBlock must retire exactly max instructions
// when no event interrupts it — the tight loop must not overrun the
// quantum by even one instruction.
func TestStepBlockBudget(t *testing.T) {
	for _, max := range []uint64{1, 2, 3, 5, 8} {
		c := load(t, mixedProgram())
		var retired uint64
		c.Hook = func(uint64, isa.Inst) { retired++ }
		ev, steps, _ := c.StepBlock(max)
		if ev != EvNone {
			t.Fatalf("max %d: event = %v", max, ev)
		}
		if steps != max || retired != max {
			t.Errorf("max %d: StepBlock reported %d steps, hook saw %d", max, steps, retired)
		}
	}
}

// TestStepBlockPreEventCycles: the third return value must hold the cycle
// count from just before the event instruction — the value the kernel's
// per-Step loop would have folded into its clock last.
func TestStepBlockPreEventCycles(t *testing.T) {
	var e isa.Enc
	e.AddImm(isa.RBX, 1)
	e.AddImm(isa.RBX, 1)
	e.AddImm(isa.RBX, 1)
	e.Syscall()
	c := load(t, e.Buf)
	ev, steps, pre := c.StepBlock(100)
	if ev != EvSyscall || steps != 4 {
		t.Fatalf("ev = %v steps = %d, want syscall after 4", ev, steps)
	}
	// Three adds retired before the syscall, one cycle each.
	if pre != 3 {
		t.Errorf("pre-event cycles = %d, want 3", pre)
	}
	if c.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", c.Cycles)
	}
}

// TestStepBlockSelfModifyingCode: the JIT store pattern must stay exact
// under batched execution — the rewrite lands in the block the loop jumps
// back to, so the transition into it has to revalidate it.
func TestStepBlockSelfModifyingCode(t *testing.T) {
	c := loadProt(t, smcProgram(t), mem.ProtRWX)
	if ev := runBlocks(t, c, 20000, 100); ev != EvHlt {
		t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
	}
	if c.Regs[isa.RDI] != 2 {
		t.Errorf("rdi = %d, want 2 (stale decode executed after in-place rewrite)", c.Regs[isa.RDI])
	}
}

// TestStepBlockSelfModifyingStraightLine: a store that rewrites an
// instruction further along its own block must take effect when that
// instruction is reached in the same batch: the straight line re-checks
// the code-mutation counter before every instruction, and no control
// transfer intervenes to revalidate the block.
func TestStepBlockSelfModifyingStraightLine(t *testing.T) {
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 2)
	var e isa.Enc
	e.MovImm64(isa.R10, 0) // the target's address, set below
	e.MovImm64(isa.R12, int64(binary.LittleEndian.Uint64(patch.Buf[2:10])))
	e.Store(isa.R10, 2, isa.R12) // mov64 rdi, 1 → mov64 rdi, 2
	target := e.Len()
	e.MovImm64(isa.RDI, 1)
	e.Hlt()
	var fix isa.Enc
	fix.MovImm64(isa.R10, codeBase+int64(target))
	copy(e.Buf, fix.Buf)

	for _, mode := range []ExecMode{ExecFast, ExecReference} {
		c := loadProt(t, e.Buf, mem.ProtRWX)
		if mode == ExecReference {
			c = cloneCPU(c)
		}
		if ev := runBlocks(t, c, 20000, 100); ev != EvHlt {
			t.Fatalf("%v: event = %v (fault: %v)", mode, ev, c.FaultErr)
		}
		if c.Regs[isa.RDI] != 2 {
			t.Errorf("%v: rdi = %d, want 2 (stale decode executed after a rewrite ahead in the block)", mode, c.Regs[isa.RDI])
		}
		if mode == ExecFast && c.SuperblockInsts == 0 {
			t.Errorf("no instruction ran batched; the test is vacuous")
		}
	}
}

// TestStepBlockReferenceSingleSteps: on the reference engine StepBlock
// is one Step per call, with the fast engine's results and the
// superblock counters untouched.
func TestStepBlockReferenceSingleSteps(t *testing.T) {
	c := loadRef(t, mixedProgram())
	ref := load(t, mixedProgram())
	if ev := run(t, ref, 5000); ev != EvSyscall {
		t.Fatalf("ref event = %v", ev)
	}
	for i := 0; i < 5000; i++ {
		ev, steps, _ := c.StepBlock(20000)
		if ev == EvSyscall {
			break
		}
		if ev != EvNone {
			t.Fatalf("event = %v (fault: %v)", ev, c.FaultErr)
		}
		if steps != 1 {
			t.Fatalf("reference batch retired %d instructions, want 1", steps)
		}
	}
	if c.Cycles != ref.Cycles {
		t.Errorf("cycles = %d, want %d", c.Cycles, ref.Cycles)
	}
	if c.Regs != ref.Regs {
		t.Error("register files differ")
	}
	if c.SuperblockInsts != 0 || c.SuperblockRuns != 0 {
		t.Errorf("superblock counters advanced on the reference engine: runs=%d insts=%d",
			c.SuperblockRuns, c.SuperblockInsts)
	}
}

// TestFusedHandlersRunOnMapEntry: a fused handler runs whenever the
// dispatch loop enters its block at the head, however it found the block.
// On a fresh CPU, with an empty table, the loop builds both blocks here:
// a NOP sled entered at an offset not entered before (a zpoline `call
// rax` with a cold syscall number), and a countdown on its first
// arrival. Both retire in closed form and leave the state Step leaves.
func TestFusedHandlersRunOnMapEntry(t *testing.T) {
	var sled isa.Enc
	sled.Nop(512)
	sled.Hlt()
	for _, tc := range []struct {
		name    string
		code    []byte
		rip     uint64
		budget  uint64
		counter func(FusedStats) uint64
		want    uint64
	}{
		// The sled's last 412 NOPs, then the hlt.
		{"nop sled", sled.Buf, codeBase + 100, 1 << 20, func(s FusedStats) uint64 { return s.FusedNopInsts }, 412},
		// jmp, the three pad NOPs, then every one of r8's 1000 iterations.
		{"countdown", countdownProgram(3), codeBase, 1 + 3 + 2*1000, func(s FusedStats) uint64 { return s.FusedLoopIters }, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fast, ref := load(t, tc.code), loadRef(t, tc.code)
			for _, c := range []*CPU{fast, ref} {
				c.RIP = tc.rip
				c.Regs[isa.R8] = 1000
			}
			got, want := stepBlock(fast, tc.budget), stepOnly(ref, tc.budget)
			if got != want || archOf(fast) != archOf(ref) {
				t.Fatalf("StepBlock = %+v %+v; Step says %+v %+v", got, archOf(fast), want, archOf(ref))
			}
			if n := tc.counter(fast.FusedStats()); n != tc.want {
				t.Errorf("the fused handler retired %d, want %d", n, tc.want)
			}
		})
	}
}
