package cpu

import (
	"fmt"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// The counted-loop guest: an endless outer loop that reloads the counter
// from R9 and enters the countdown through a run of NOPs ending exactly
// on a page boundary, so the run is its own block and a chained
// fall-through lands on the countdown with the run's partial batch still
// pending.
//
//	codeBase:        jmp pad
//	loopAddr - nops: nop * nops                  (pad)
//	loopAddr:        addi r8,-1 ; jnz loopAddr   (the countdown)
//	tailAddr:        mov r8,r9 ; jmp pad
const (
	loopAddr = codeBase + mem.PageSize
	tailAddr = loopAddr + 6 + 5 // addi is 6 bytes, jnz 5
)

func countdownProgram(nops int) []byte {
	pad := int(mem.PageSize) - nops
	var e isa.Enc
	e.Jmp(int64(pad) - 5)
	e.Buf = append(e.Buf, make([]byte, pad-e.Len())...)
	e.Nop(nops)
	e.AddImm(isa.R8, -1)
	e.Jnz(-(6 + 5))
	e.MovReg(isa.R8, isa.R9)
	e.Jmp(int64(pad) - int64(e.Len()) - 5)
	return e.Buf
}

// stepCall is one StepBlock call's result.
type stepCall struct {
	ev         Event
	steps, pre uint64
}

// stepOnly is StepBlock's contract spelled with Step alone — the oracle.
func stepOnly(c *CPU, max uint64) stepCall {
	r := stepCall{pre: c.Cycles}
	for r.steps < max && r.ev == EvNone {
		r.pre = c.Cycles
		r.ev = c.Step()
		r.steps++
	}
	return r
}

func stepBlock(c *CPU, max uint64) stepCall {
	ev, steps, pre := c.StepBlock(max)
	return stepCall{ev, steps, pre}
}

// archState is everything the guest or the kernel can observe of a CPU.
type archState struct {
	regs       [isa.NumRegs]uint64
	rip        uint64
	zf, sf     bool
	cycles     uint64
	nopBatches uint64
}

func archOf(c *CPU) archState {
	return archState{c.Regs, c.RIP, c.ZF, c.SF, c.Cycles, c.NopBatches}
}

// hostState is the host-side accounting the closed form must share with
// plain chained execution: every instruction it retires counts as one
// decode-cache hit and one superblock instruction. (Chain transitions and
// trace counters differ by design: chained execution follows the block's
// link to itself once per iteration.)
type hostState struct {
	cache           DecodeCacheStats
	superblockInsts uint64
}

func hostOf(c *CPU) hostState {
	return hostState{c.DecodeCacheStats(), c.SuperblockInsts}
}

// countedLoopRig holds three CPUs over the same guest: a Step-only
// oracle, the closed form, and plain chained execution — the fast engine
// with the decoded countdown block re-tagged fusedNone, so it runs
// through runChained's straight-line loop one instruction at a time.
type countedLoopRig struct {
	oracle, closed, perInst *CPU
}

// newCountedLoopRig warms all three CPUs with single-iteration passes
// until every chain link into the countdown is planted (the per-Step
// dispatch plants one on second arrival), stops each at the tail's reload
// and arms the reload with r. The next arrival at the countdown is then a
// chained transition — the only way into a fused handler — with the pad
// run's NOPs pending.
func newCountedLoopRig(t *testing.T, r uint64, nops int, costs Costs) *countedLoopRig {
	t.Helper()
	code := countdownProgram(nops)
	warm := func(step func(*CPU, uint64) stepCall) *CPU {
		c := load(t, code)
		c.Costs = costs
		c.Regs[isa.R8], c.Regs[isa.R9] = 1, 1
		for arrivals := 0; arrivals < 2; {
			if step(c, 1); c.RIP == tailAddr {
				arrivals++
			}
		}
		c.Regs[isa.R9] = r
		return c
	}
	rig := &countedLoopRig{oracle: warm(stepOnly), closed: warm(stepBlock), perInst: warm(stepBlock)}
	for _, c := range []*CPU{rig.closed, rig.perInst} {
		b := c.cache.blocks[loopAddr]
		if b == nil || b.fused != fusedCountdown {
			t.Fatalf("countdown block not classified: %+v", b)
		}
		if n := c.TraceStats().FusedLoopIters; n != 0 {
			t.Fatalf("warm-up already ran a fused handler (%d iterations)", n)
		}
	}
	// Warm-up never took the back edge (one iteration per pass), so plant
	// the block's link to itself on both fast CPUs: without it the first
	// back edge either engine takes per instruction resolves through a
	// dispatched Step, which the superblock counter does not count.
	for _, c := range []*CPU{rig.closed, rig.perInst} {
		b := c.cache.blocks[loopAddr]
		c.cache.link(b, b)
	}
	rig.perInst.cache.blocks[loopAddr].fused = fusedNone
	return rig
}

// step runs one budget on all three CPUs and compares everything.
func (rig *countedLoopRig) step(t *testing.T, budget uint64) {
	t.Helper()
	want := stepOnly(rig.oracle, budget)
	closed, perInst := stepBlock(rig.closed, budget), stepBlock(rig.perInst, budget)
	if closed != want || perInst != want {
		t.Fatalf("StepBlock(%d) = closed %+v, per-instruction %+v; Step says %+v", budget, closed, perInst, want)
	}
	if c, p, o := archOf(rig.closed), archOf(rig.perInst), archOf(rig.oracle); c != o || p != o {
		t.Fatalf("after StepBlock(%d):\nclosed          %+v\nper-instruction %+v\nStep            %+v", budget, c, p, o)
	}
	if c, p := hostOf(rig.closed), hostOf(rig.perInst); c != p {
		t.Fatalf("after StepBlock(%d) host accounting differs:\nclosed          %+v\nper-instruction %+v", budget, c, p)
	}
}

// TestCountedLoopMatchesStep: the closed form, plain chained execution
// and plain Step agree at every edge of the
// counter (zero = 2^64 iterations, the values around a 20 000-step budget,
// the sign boundary, all ones), the budget (every remainder of a whole
// pass, and a budget the loop ends exactly on), a pending NOP batch, and
// the two cost knobs the identities multiply through.
func TestCountedLoopMatchesStep(t *testing.T) {
	counters := []uint64{0, 1, 2, 3, 9_999, 10_000, 10_001, 1 << 63, 1<<64 - 1}
	budgets := []uint64{1, 2, 3, 4, 5, 6, 7, 19_999, 20_000, 20_003}
	ran := false
	for _, r := range counters {
		for _, budget := range budgets {
			for _, nops := range []int{0, 3} {
				for _, insn := range []uint64{1, 3} {
					for _, npc := range []uint64{1, 8} {
						name := fmt.Sprintf("r=%d/budget=%d/nops=%d/insn=%d/npc=%d", r, budget, nops, insn, npc)
						t.Run(name, func(t *testing.T) {
							costs := DefaultCosts()
							costs.Insn, costs.NopsPerCycle = insn, npc
							rig := newCountedLoopRig(t, r, nops, costs)
							calls := 3
							if budget < 8 {
								calls = 24
							}
							for i := 0; i < calls; i++ {
								rig.step(t, budget)
							}
							if rig.closed.TraceStats().FusedLoopIters > 0 {
								ran = true
							}
						})
					}
				}
			}
		}
	}
	if !ran {
		t.Error("the closed form never ran (vacuous)")
	}
}

// TestCountedLoopPendingNopBatch pins the one identity the matrix could
// satisfy vacuously: the closed form really is entered with a partial NOP
// batch pending, and bills it exactly once.
func TestCountedLoopPendingNopBatch(t *testing.T) {
	rig := newCountedLoopRig(t, 100, 3, DefaultCosts())
	rig.step(t, 4) // mov, jmp, two of the three NOPs
	c := rig.closed
	if c.nopAccum != 2 || c.RIP != loopAddr-1 {
		t.Fatalf("not one NOP short of the countdown: accum %d rip %#x", c.nopAccum, c.RIP)
	}
	cycles, batches := c.Cycles, c.NopBatches
	rig.step(t, 1+200)
	if got := c.TraceStats().FusedLoopIters; got != 100 {
		t.Fatalf("closed form retired %d iterations, want all 100", got)
	}
	if got := c.Cycles - cycles; got != 1+200 {
		t.Errorf("cycles grew by %d, want 1 (the flushed batch) + 200", got)
	}
	if got := c.NopBatches - batches; got != 1 {
		t.Errorf("NopBatches grew by %d, want 1", got)
	}
}

// TestCountedLoopZeroCounterDoesNotSpin: a counter that is zero on entry
// means 2^64 iterations. The closed form retires one budget's worth and
// returns; a budget no per-instruction engine could finish proves it.
func TestCountedLoopZeroCounterDoesNotSpin(t *testing.T) {
	c := newCountedLoopRig(t, 0, 0, DefaultCosts()).closed
	cycles := c.Cycles
	const budget = 1 << 40
	iters := uint64(budget-2) / 2 // after mov r8,r9 ; jmp
	got := stepBlock(c, budget)
	if want := (stepCall{EvNone, budget, cycles + budget - 1}); got != want {
		t.Fatalf("StepBlock(2^40) = %+v, want %+v", got, want)
	}
	if r := c.Regs[isa.R8]; r != -iters || c.RIP != loopAddr || c.ZF || !c.SF {
		t.Errorf("r8 = %#x rip = %#x zf = %v sf = %v after %d iterations from zero", r, c.RIP, c.ZF, c.SF, iters)
	}
	if n := c.TraceStats().FusedLoopIters; n != iters {
		t.Errorf("FusedLoopIters = %d, want %d", n, iters)
	}
}

// TestCountedLoopShapeIsExact: only `addi r,-1 ; jnz <block entry>` takes
// the closed form. Another stride or a longer body runs per instruction;
// a jnz that leaves the block is no self-loop at all; and an instruction
// hook sees every iteration of the real thing. Each variant still
// computes what Step computes.
func TestCountedLoopShapeIsExact(t *testing.T) {
	shapes := []struct {
		name string
		body func(e *isa.Enc) // the loop block, bar its closing jnz
		want fusedKind
	}{
		{"countdown", func(e *isa.Enc) { e.AddImm(isa.R8, -1) }, fusedCountdown},
		{"stride -2", func(e *isa.Enc) { e.AddImm(isa.R8, -2) }, fusedNone},
		{"stride +1", func(e *isa.Enc) { e.AddImm(isa.R8, 1) }, fusedNone},
		{"third instruction", func(e *isa.Enc) { e.AddImm(isa.RBX, 1).AddImm(isa.R8, -1) }, fusedNone},
		{"sub, not addi", func(e *isa.Enc) { e.Sub(isa.R8, isa.RDX) }, fusedNone},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			var e isa.Enc
			e.MovImm64(isa.R8, 600)
			e.MovImm64(isa.RDX, 1)
			e.Jmp(0) // block boundary: the loop is a block of its own
			loop := e.Len()
			s.body(&e)
			e.Jnz(int64(loop) - int64(e.Len()) - 5)
			e.Hlt()
			// Stride +1 counts up from 600 for ever; a bounded run is enough.
			const budget = 5_000
			c, ref := load(t, e.Buf), load(t, e.Buf)
			got, want := stepBlock(c, budget), stepOnly(ref, budget)
			if got != want || archOf(c) != archOf(ref) {
				t.Fatalf("diverged from Step: %+v / %+v vs %+v / %+v", got, archOf(c), want, archOf(ref))
			}
			b := c.cache.blocks[codeBase+uint64(loop)]
			if b == nil || b.fused != s.want {
				t.Fatalf("loop block = %+v, want kind %d", b, s.want)
			}
			if ran := c.TraceStats().FusedLoopIters > 0; ran != (s.want == fusedCountdown) {
				t.Errorf("closed form ran = %v, want %v", ran, s.want == fusedCountdown)
			}
		})
	}

	t.Run("jnz leaves the block", func(t *testing.T) {
		var e isa.Enc
		e.MovImm64(isa.R8, 600)
		top := e.Len()
		e.AddImm(isa.RBX, 1)
		e.Jmp(0)
		loop := e.Len()
		e.AddImm(isa.R8, -1)
		e.Jnz(int64(top) - int64(e.Len()) - 5)
		e.Hlt()
		c, ref := load(t, e.Buf), load(t, e.Buf)
		got, want := stepBlock(c, 5_000), stepOnly(ref, 5_000)
		if got != want || archOf(c) != archOf(ref) || got.ev != EvHlt {
			t.Fatalf("diverged from Step: %+v vs %+v", got, want)
		}
		if b := c.cache.blocks[codeBase+uint64(loop)]; b == nil || b.fused != fusedNone {
			t.Fatalf("block = %+v, want no fused kind", b)
		}
		if n := c.TraceStats().FusedLoopIters; n != 0 {
			t.Errorf("the closed form retired %d iterations", n)
		}
	})

	t.Run("instruction hook", func(t *testing.T) {
		rig := newCountedLoopRig(t, 500, 0, DefaultCosts())
		seen := 0
		rig.closed.Hook = func(uint64, isa.Inst) { seen++ }
		rig.perInst.Hook = func(uint64, isa.Inst) {}
		for i := 0; i < 4; i++ {
			rig.step(t, 300)
		}
		if seen != 4*300 {
			t.Errorf("hook saw %d instructions, want %d", seen, 4*300)
		}
		if n := rig.closed.TraceStats().FusedLoopIters; n != 0 {
			t.Errorf("closed form retired %d iterations behind the hook's back", n)
		}
	})
}

// FuzzCountedLoop: any counter, any budget sequence, any preceding NOP run
// (long enough runs are a fused sled chaining into the countdown), either
// cost knob — the three engines agree after every call.
func FuzzCountedLoop(f *testing.F) {
	f.Add(uint64(0), uint64(0x0102030405060708), uint8(0), uint8(1), uint8(8))
	f.Add(uint64(1), uint64(0xffff_0001_0002_0003), uint8(3), uint8(3), uint8(8))
	f.Add(uint64(150), uint64(0x012c_012d_012b_0001), uint8(7), uint8(1), uint8(1))
	f.Add(uint64(1<<63), uint64(0x0007_0100_0001_0002), uint8(12), uint8(2), uint8(4))
	f.Add(uint64(1<<64-1), uint64(0x0400_0001_0400_0003), uint8(5), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, r, budgets uint64, nops, insn, npc uint8) {
		costs := DefaultCosts()
		costs.Insn = uint64(insn%4) + 1
		costs.NopsPerCycle = uint64(npc % 10)
		rig := newCountedLoopRig(t, r, int(nops%16), costs)
		// Four 16-bit budgets, each used twice: the second use starts
		// wherever the first one stopped, mid-pass included.
		for i := 0; i < 8; i++ {
			rig.step(t, 1+(budgets>>(16*(i%4)))&0x7ff)
		}
	})
}
