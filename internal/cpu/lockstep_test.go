package cpu

import (
	"fmt"
	"slices"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// Lockstep is the divergence oracle for the fast engine: one CPU runs
// Step alone, its clone runs StepBlock, and the two are compared at every
// block boundary the fast engine reaches. On the first difference the
// reference replays the stretch since the last agreeing boundary one
// instruction at a time and names the instruction responsible: the
// earliest of the last writers, in that stretch, of the differing fields.
// A fused handler retires many instructions in one update; this is how a
// wrong value stored by the first of fifteen pushes is pinned on that
// push rather than on the run's end.

// Divergence names the first instruction at which the fast engine left
// the reference.
type Divergence struct {
	// Index counts the instructions retired before it since Lockstep began.
	Index uint64
	PC    uint64
	Inst  string
	// Field is the first state that differs — a register, rip, zf, sf,
	// cycles, nop_batches, nop_accum, pkru, xstate, fault, mem[addr], or
	// StepBlock's pre and event — with the reference's value and the fast
	// engine's.
	Field     string
	Want, Got string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("instruction #%d at %#x (%s): %s = %s, want %s", d.Index, d.PC, d.Inst, d.Field, d.Got, d.Want)
}

// Lockstep drives ref with Step and fast with StepBlock through the given
// budgets (StepBlock calls, each split at the fast engine's block
// boundaries) and returns the first divergence, or nil. ref and fast must
// be clones: same registers, cycles, NOP accumulator and memory. Events
// other than a halt or a fault resume with the rest of the budget, as a
// kernel would after handling them.
func Lockstep(ref, fast *CPU, budgets ...uint64) *Divergence {
	return lockstep(ref, fast, stepBlock, budgets)
}

// lockstep is Lockstep with the fast engine's call pluggable, so a test
// can hand it a deliberately broken one.
func lockstep(ref, fast *CPU, run func(*CPU, uint64) stepCall, budgets []uint64) *Divergence {
	lag := cloneCPU(ref) // the reference as of the last agreeing boundary
	var index uint64
	for _, budget := range budgets {
		for left := budget; left > 0; {
			seg := nextSegment(fast, left)
			got, want := run(fast, seg), stepOnly(ref, seg)
			if d := firstDifference(lag, ref, fast, want, got); d != nil {
				d.Index += index
				return d
			}
			stepOnly(lag, want.steps)
			index += got.steps
			left -= got.steps
			if got.ev == EvHlt || got.ev == EvFault {
				return nil
			}
		}
	}
	return nil
}

// nextSegment is the budget that carries the fast engine to its next
// block boundary. Fused handlers run when a chained transition lands on a
// block's head, with whatever budget the call has left, so a segment
// stops one instruction short of a block's end, and the next one runs
// that instruction, the transition and the unit it leads to — a block, a
// whole trace from a trace head, or everything left for a countdown,
// whose closed form decides for itself how much to retire — bar that
// unit's own last instruction. Where the unit is not known yet (a branch
// whose links are not planted) the segment is a single instruction.
func nextSegment(c *CPU, left uint64) uint64 {
	dc := c.cache
	if dc == nil || !c.superblock {
		return 1
	}
	b, i := dc.cur, dc.curIdx
	if b == nil || b.dropped || i > len(b.pcs) || i < len(b.pcs) && b.pcs[i] != c.RIP {
		b, i = nil, 0
	}
	var n uint64
	var next []*cachedBlock
	switch {
	case b != nil && i < len(b.pcs)-1:
		return min(uint64(len(b.pcs)-i-1), left)
	case b != nil && i == len(b.pcs)-1:
		n, next = 1, b.succ[:]
	default:
		next = []*cachedBlock{dc.blocks[c.RIP]}
	}
	var unit uint64
	for _, s := range next {
		switch {
		case s == nil:
		case s.fused == fusedCountdown:
			unit = left
		case s.trace != nil && !s.trace.dead:
			unit = max(unit, uint64(len(s.trace.pcs)-1))
		default:
			unit = max(unit, uint64(len(s.pcs)-1))
		}
	}
	return min(max(n+unit, 1), left)
}

// cloneCPU copies c's architectural state onto a fresh CPU over a copy of
// its address space.
func cloneCPU(c *CPU) *CPU {
	d := New(c.AS.Clone())
	d.CloneState(c)
	d.Costs, d.Cycles, d.NopBatches, d.nopAccum, d.FaultErr = c.Costs, c.Cycles, c.NopBatches, c.nopAccum, c.FaultErr
	return d
}

// cpuState is the CPU side of what Lockstep compares.
type cpuState struct {
	regs                         [isa.NumRegs]uint64
	rip                          uint64
	zf, sf                       bool
	cycles, nopBatches, nopAccum uint64
	pkru                         uint32
	x                            XState
	fault                        string
}

func stateOf(c *CPU) cpuState {
	return cpuState{
		regs: c.Regs, rip: c.RIP, zf: c.ZF, sf: c.SF,
		cycles: c.Cycles, nopBatches: c.NopBatches, nopAccum: c.nopAccum,
		pkru: c.PKRU, x: c.X, fault: fmt.Sprint(c.FaultErr),
	}
}

// machine is everything Lockstep compares: the CPU and its readable pages
// by page number.
type machine struct {
	cpuState
	pages map[uint64][]byte
}

func snapshot(c *CPU) *machine {
	m := &machine{cpuState: stateOf(c), pages: make(map[uint64][]byte)}
	for _, r := range c.AS.Regions() {
		for a := r.Addr; a < r.Addr+r.Length; a += mem.PageSize {
			p := make([]byte, mem.PageSize)
			if c.AS.ReadForce(a, p) == nil { // PROT_NONE pages hold nothing to compare
				m.pages[a>>mem.PageShift] = p
			}
		}
	}
	return m
}

// field is one piece of state that differs between two machines.
type field struct{ name, want, got string }

// diffMachines lists every field in which got differs from want:
// registers first, then the rest of the CPU, then memory by address.
func diffMachines(want, got *machine) []field {
	var out []field
	add := func(name string, w, g any) {
		if ws, gs := fmt.Sprintf("%#v", w), fmt.Sprintf("%#v", g); ws != gs {
			out = append(out, field{name, ws, gs})
		}
	}
	for r := range want.regs {
		add(isa.Reg(r).String(), want.regs[r], got.regs[r])
	}
	add("rip", want.rip, got.rip)
	add("zf", want.zf, got.zf)
	add("sf", want.sf, got.sf)
	add("cycles", want.cycles, got.cycles)
	add("nop_batches", want.nopBatches, got.nopBatches)
	add("nop_accum", want.nopAccum, got.nopAccum)
	add("pkru", want.pkru, got.pkru)
	if want.x != got.x {
		out = append(out, field{"xstate", "(reference)", "(differs)"})
	}
	add("fault", want.fault, got.fault)
	var pns []uint64
	for pn := range want.pages {
		pns = append(pns, pn)
	}
	for pn := range got.pages {
		if want.pages[pn] == nil {
			pns = append(pns, pn)
		}
	}
	slices.Sort(pns)
	for _, pn := range pns {
		w, g := want.pages[pn], got.pages[pn]
		if w == nil || g == nil {
			add(fmt.Sprintf("page[%#x]", pn<<mem.PageShift), w != nil, g != nil)
			continue
		}
		for i := range w {
			if w[i] != g[i] {
				add(fmt.Sprintf("mem[%#x]", pn<<mem.PageShift+uint64(i)), w[i], g[i])
			}
		}
	}
	return out
}

// sameMemory compares two address spaces' readable pages without keeping
// copies: the common case at every boundary.
func sameMemory(a, b *mem.AddressSpace) bool {
	ra, rb := a.Regions(), b.Regions()
	if len(ra) != len(rb) {
		return false
	}
	var pa, pb [mem.PageSize]byte
	for i, r := range ra {
		if r != rb[i] {
			return false
		}
		for addr := r.Addr; addr < r.Addr+r.Length; addr += mem.PageSize {
			ea, eb := a.ReadForce(addr, pa[:]), b.ReadForce(addr, pb[:])
			if (ea == nil) != (eb == nil) || pa != pb {
				return false
			}
		}
	}
	return true
}

// firstDifference compares the fast engine with the reference after one
// segment and, if they differ, replays lag — the reference as of the
// segment's start — to name the instruction responsible.
func firstDifference(lag, ref, fast *CPU, want, got stepCall) *Divergence {
	replay := func(steps uint64) (pcs []uint64, insts []string, writer map[string]uint64) {
		writer = make(map[string]uint64)
		prev := snapshot(lag)
		for j := uint64(0); j < steps; j++ {
			pcs = append(pcs, lag.RIP)
			insts = append(insts, disasm(lag.AS, lag.RIP))
			lag.Step()
			cur := snapshot(lag)
			for _, f := range diffMachines(prev, cur) {
				writer[f.name] = j
			}
			prev = cur
		}
		return pcs, insts, writer
	}
	if got.ev != want.ev || got.steps != want.steps {
		// The engines stopped at different instructions: the last one the
		// shorter stretch retired raised an event the other did not.
		at := min(got.steps, want.steps) - 1
		pcs, insts, _ := replay(at + 1)
		return &Divergence{Index: at, PC: pcs[at], Inst: insts[at], Field: "event",
			Want: fmt.Sprintf("%v after %d", want.ev, want.steps), Got: fmt.Sprintf("%v after %d", got.ev, got.steps)}
	}
	var fields []field
	if !sameState(ref, fast) {
		fields = diffMachines(snapshot(ref), snapshot(fast))
	}
	if got.pre != want.pre {
		fields = append(fields, field{"pre", fmt.Sprint(want.pre), fmt.Sprint(got.pre)})
	}
	if len(fields) == 0 || want.steps == 0 {
		return nil
	}
	pcs, insts, writer := replay(want.steps)
	writer["pre"] = want.steps - 1 // pre is the count before the last instruction
	// A field the reference did not change in the stretch — the fast
	// engine wrote it, or the reference rewrote the value already there —
	// is pinned on the stretch's start, and only if no differing field
	// has a writer.
	var best *Divergence
	var bestKnown bool
	for _, f := range fields {
		j, known := writer[f.name]
		if best == nil || known && (!bestKnown || j < best.Index) {
			best = &Divergence{Index: j, PC: pcs[j], Inst: insts[j], Field: f.name, Want: f.want, Got: f.got}
			bestKnown = known
		}
	}
	return best
}

// sameState is the cheap full comparison run at every boundary.
func sameState(a, b *CPU) bool {
	return stateOf(a) == stateOf(b) && sameMemory(a.AS, b.AS)
}

// disasm decodes the instruction at pc for a report.
func disasm(as *mem.AddressSpace, pc uint64) string {
	var buf [maxInsnLen]byte
	n, _ := as.FetchExec(pc, buf[:])
	in, err := isa.Decode(buf[:n])
	if err != nil {
		return fmt.Sprintf("undecodable % x", buf[:n])
	}
	return in.String()
}
