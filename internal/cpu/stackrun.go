package cpu

import (
	"encoding/binary"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// Stack runs (DESIGN.md §11): two or more consecutive `push r`, `pop r`
// or `load r,[rsp+k]` instructions, all of one kind, none naming rsp as
// r. The interposer entry stub is three of them — fifteen pushes, seven
// syscall-register reloads, fifteen pops — around every interposed
// syscall. Every member of a run addresses the stack at a fixed offset
// from the run's starting rsp, so the whole run touches one byte span
// known before its first instruction: when that span lies in one page
// the D-TLB passes for the access, the run executes as one lookup and n
// register moves. Otherwise it executes per instruction, and so do the
// fault address, the partial state a fault leaves and every locked-path
// side effect.

// stackRun locates a block's stack run: n instructions from index at.
// at is -1 when there is none.
type stackRun struct {
	at, n int32
}

var noStackRun = stackRun{at: -1}

// stackRunOp returns the run kind in belongs to: OpPush, OpPop or
// OpLoad, or ok == false when in cannot be part of a stack run.
func stackRunOp(in *isa.Inst) (op isa.Op, ok bool) {
	if in.Mnem != isa.MOp || in.A == isa.RSP {
		return 0, false
	}
	switch in.Op {
	case isa.OpPush, isa.OpPop:
		return in.Op, true
	case isa.OpLoad:
		return in.Op, in.B == isa.RSP
	}
	return 0, false
}

// findStackRun returns the first stack run in insts at or after index
// from. Only the first is recorded, so the hot loops need one compare per
// instruction to spot it; the interposer stub's blocks hold one each.
func findStackRun(insts []isa.Inst, from int) stackRun {
	for i := from; i < len(insts); {
		op, ok := stackRunOp(&insts[i])
		j := i + 1
		for ok && j < len(insts) {
			if next, same := stackRunOp(&insts[j]); !same || next != op {
				break
			}
			j++
		}
		if ok && j-i >= 2 {
			return stackRun{at: int32(i), n: int32(j - i)}
		}
		i = j
	}
	return noStackRun
}

// runStack retires the stack run ins (at pcs) with one D-TLB lookup over
// the bytes it touches, leaving every piece of state as len(ins) trips
// through execInst would; DESIGN.md §11 argues each one. It returns false
// with nothing retired — the caller then executes the run per
// instruction — when fused handlers are off or a hook is attached, when
// the whole run does not fit the remaining budget, or when the span is
// not one page the fast path may access (TLB off, page crossing,
// unmapped, protection or pkey denied, or a store to an executable page).
// The caller advances its own position in the block or trace.
func (c *CPU) runStack(pcs []uint64, ins []isa.Inst, max uint64, steps, pre *uint64) bool {
	n := uint64(len(ins))
	if !c.traces || !c.chaining || c.Hook != nil || *steps+n > max {
		return false
	}
	sp := c.Regs[isa.RSP]
	op := ins[0].Op
	var lo uint64
	size := 8 * int(n)
	switch op {
	case isa.OpPush:
		lo = sp - 8*n
	case isa.OpPop:
		lo = sp
	default: // OpLoad
		kLo, kHi := ins[0].Imm, ins[0].Imm
		for i := range ins {
			if k := ins[i].Imm; k < kLo {
				kLo = k
			} else if k > kHi {
				kHi = k
			}
		}
		lo, size = sp+uint64(kLo), int(kHi-kLo)+8
	}
	h := c.lookup(lo, size, op == isa.OpPush, false)
	if h == nil {
		return false
	}
	d := h.Data[lo&(mem.PageSize-1):]
	switch op {
	case isa.OpPush:
		// The i-th push stores below the i-1 before it: slot n-1-i from lo.
		for i := range ins {
			binary.LittleEndian.PutUint64(d[8*(len(ins)-1-i):], c.Regs[ins[i].A])
		}
		c.Regs[isa.RSP] = lo
	case isa.OpPop:
		for i := range ins {
			c.Regs[ins[i].A] = binary.LittleEndian.Uint64(d[8*i:])
		}
		c.Regs[isa.RSP] = sp + 8*n
	default:
		kLo := int64(lo - sp)
		for i := range ins {
			c.Regs[ins[i].A] = binary.LittleEndian.Uint64(d[ins[i].Imm-kLo:])
		}
	}
	// The first instruction ends any NOP run; nothing after it starts one.
	c.FlushNopBatch()
	c.Cycles += n * c.Costs.Insn
	*pre = c.Cycles - c.Costs.Insn
	last := len(ins) - 1
	c.RIP = pcs[last] + uint64(ins[last].Len)
	*steps += n
	c.SuperblockInsts += n
	c.cache.stats.Hits += n
	c.cache.tstats.FusedStackInsts += n
	return true
}
