package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// stubShapedProgram is the interposer stub's save/restore as a loop: a
// NOP pad, fifteen pushes, a block boundary, seven reloads off rsp, a block
// boundary, fifteen pops, then the countdown's `addi ; jnz` back to the
// pad (a longer body than the countdown, so no closed form).
func stubShapedProgram(iters int64) []byte {
	var e isa.Enc
	e.MovImm64(isa.R12, iters)
	loop := e.Len()
	e.Nop(2)
	for _, r := range stubRegs {
		e.Push(r)
	}
	e.Jmp(0)
	for i, r := range stubRegs[:7] {
		e.Load(r, isa.RSP, int64(8*(14-2*i)))
	}
	e.Jmp(0)
	for i := len(stubRegs) - 1; i >= 0; i-- {
		e.Pop(stubRegs[i])
	}
	e.AddImm(isa.R12, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Hlt()
	return e.Buf
}

// stubRegs are the stub's fifteen saved registers: all but rsp, with r12
// (the loop counter) among them.
var stubRegs = []isa.Reg{
	isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.RBP, isa.RSI, isa.RDI,
	isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.R15,
}

// seedRegs gives every register but rsp a value distinct in every byte,
// so a value stored to or loaded from the wrong slot shows at its first
// byte.
func seedRegs(c *CPU) {
	for r := range c.Regs {
		if isa.Reg(r) != isa.RSP {
			c.Regs[r] = 0x0101_0101_0101_0101 * uint64(r+1)
		}
	}
}

// TestLockstepFusedHandlers: the three closed forms — NOP sled, countdown,
// stack run — each agree with Step at every block boundary, over budgets
// from one instruction to many passes, and each really ran.
func TestLockstepFusedHandlers(t *testing.T) {
	cases := []struct {
		name  string
		code  []byte
		setup func(*CPU)
		fused func(FusedStats) uint64
	}{
		{"nop sled", chainedProgram(), nil, func(s FusedStats) uint64 { return s.FusedNopInsts }},
		{"countdown", countdownProgram(3), func(c *CPU) {
			c.Regs[isa.R8], c.Regs[isa.R9] = 1, 900
		}, func(s FusedStats) uint64 { return s.FusedLoopIters }},
		{"stack run", stubShapedProgram(100), seedRegs, func(s FusedStats) uint64 { return s.FusedStackInsts }},
	}
	for _, tc := range cases {
		for _, budgets := range [][]uint64{{1 << 20}, {7, 3, 1, 40, 1 << 20}, {20_000, 20_000, 20_000}} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, budgets), func(t *testing.T) {
				fast := load(t, tc.code)
				if tc.setup != nil {
					tc.setup(fast)
				}
				ref := cloneCPU(fast)
				if d := Lockstep(ref, fast, budgets...); d != nil {
					t.Fatal(d)
				}
				if tc.fused(fast.FusedStats()) == 0 {
					t.Error("the fused handler never ran (vacuous)")
				}
			})
		}
	}
}

// TestStackRunHostCounters: a stack run moves no host counter but its
// own and the D-TLB's. With rsp placed so that every run straddles a page
// boundary every run falls back, and the decode-cache, superblock, chain
// and other fused counters come out the same;
// with a hook attached nothing fuses and the hook sees every instruction.
func TestStackRunHostCounters(t *testing.T) {
	run := func(straddle bool, hook InsnHook) (*CPU, uint64) {
		c := load(t, stubShapedProgram(100))
		seedRegs(c)
		if straddle {
			// The pushes span [rsp-120, rsp), the reloads and pops the same
			// bytes after them: all across the page boundary 56 bytes down.
			c.Regs[isa.RSP] = stackBase + stackSize - mem.PageSize + 56
		}
		c.Hook = hook
		var retired uint64
		for ev := EvNone; ev == EvNone; {
			var n uint64
			ev, n, _ = c.StepBlock(500)
			retired += n
		}
		return c, retired
	}
	fused, retired := run(false, nil)
	plain, _ := run(true, nil)
	if fused.FusedStats().FusedStackInsts == 0 {
		t.Fatalf("no stack run ran (vacuous): %+v", fused.FusedStats())
	}
	if plain.FusedStats().FusedStackInsts != 0 {
		t.Errorf("%d stack-run instructions fused across a page boundary", plain.FusedStats().FusedStackInsts)
	}
	ft, pt := fused.FusedStats(), plain.FusedStats()
	ft.FusedStackInsts, pt.FusedStackInsts = 0, 0
	if hostOf(fused) != hostOf(plain) || ft != pt || fused.ChainStats() != plain.ChainStats() {
		t.Errorf("host counters moved:\nfused %+v %+v %+v\nplain %+v %+v %+v",
			hostOf(fused), ft, fused.ChainStats(), hostOf(plain), pt, plain.ChainStats())
	}
	seen := uint64(0)
	hooked, _ := run(false, func(uint64, isa.Inst) { seen++ })
	if n := hooked.FusedStats().FusedStackInsts; n != 0 || seen != retired {
		t.Errorf("with a hook: %d fused, hook saw %d of %d instructions", n, seen, retired)
	}
}

// pushRunProgram is four NOPs and a run of eight pushes ending a block: a
// lockstep boundary falls right behind the run, so StepBlock's pre there
// is the run's own (TestLockstepNamesBrokenEngine).
func pushRunProgram() []byte {
	var e isa.Enc
	e.Nop(4)
	for _, r := range []isa.Reg{isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI, isa.RDI, isa.R8, isa.R9} {
		e.Push(r)
	}
	e.Jmp(0)
	e.Hlt()
	return e.Buf
}

// Stack-run fuzz layout: three stack pages; the middle one takes the
// protection variant, and rsp starts near one of its two edges.
const (
	runStackBase = 0x40000
	runStackPage = runStackBase + mem.PageSize
)

// Protection variants of the middle stack page.
const (
	protRW = iota
	protRO
	protNone
	protExec      // RWX: stores must take the locked path
	protPkeyRead  // pkey 1, PKRU access-disable
	protPkeyWrite // pkey 1, PKRU write-disable
	protFork      // RW, but the CPU runs on a forked copy
	protVariants
)

// stackRunProgram is `top: nop*pad ; run ; addi r15,-1 ; jnz top ; hlt`
// with a run of n instructions of kind op, loads at the given offsets.
func stackRunProgram(op isa.Op, n, pad int, offs []int8) []byte {
	regs := []isa.Reg{isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.RBP, isa.RSI, isa.RDI, isa.R8}
	var e isa.Enc
	top := e.Len()
	e.Nop(pad)
	for i := 0; i < n; i++ {
		r := regs[i%len(regs)]
		switch op {
		case isa.OpPush:
			e.Push(r)
		case isa.OpPop:
			e.Pop(r)
		default:
			e.Load(r, isa.RSP, int64(offs[i%len(offs)]))
		}
	}
	e.AddImm(isa.R15, -1)
	e.Jnz(int64(top) - int64(e.Len()) - 5)
	e.Hlt()
	return e.Buf
}

// stackRunMachine builds the fuzz machine: the program, three stack pages
// with the variant applied to the middle one, rsp at spOff from its start.
// Under protFork it also returns the parent's address space.
func stackRunMachine(t *testing.T, code []byte, variant int, spOff int64) (c *CPU, parent *mem.AddressSpace) {
	c = load(t, code)
	as := c.AS
	if err := as.MapFixed(runStackBase, 3*mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, 3*mem.PageSize)
	for i := range fill {
		fill[i] = byte(i*7 + i>>8)
	}
	if err := as.WriteAt(runStackBase, fill); err != nil {
		t.Fatal(err)
	}
	prot := map[int]mem.Prot{protRO: mem.ProtRead, protNone: mem.ProtNone, protExec: mem.ProtRWX}
	if p, ok := prot[variant]; ok {
		if err := as.Protect(runStackPage, mem.PageSize, p); err != nil {
			t.Fatal(err)
		}
	}
	if variant == protPkeyRead || variant == protPkeyWrite {
		if err := as.SetPkey(runStackPage, mem.PageSize, 1); err != nil {
			t.Fatal(err)
		}
		c.PKRU = mem.PkeyAccessDisableBit(1)
		if variant == protPkeyWrite {
			c.PKRU = mem.PkeyWriteDisableBit(1)
		}
		as.SetActivePKRU(c.PKRU)
	}
	seedRegs(c)
	c.Regs[isa.RSP] = uint64(int64(runStackPage) + spOff)
	c.Regs[isa.R15] = 3
	if variant == protFork {
		// Warm the TLB on the parent, then continue on a copy, as a child
		// would: nothing the child stores may reach the parent's pages.
		c.StepBlock(3)
		parent, c.AS = as, as.Clone()
	}
	return c, parent
}

// checkStackRun runs one fuzz case under Lockstep and checks that the
// parent of a fork kept its bytes.
func checkStackRun(t *testing.T, op isa.Op, n, pad, variant int, spOff int64, offs []int8, budgets []uint64) *CPU {
	t.Helper()
	fast, parent := stackRunMachine(t, stackRunProgram(op, n, pad, offs), variant, spOff)
	var before, after [3 * mem.PageSize]byte
	if parent != nil {
		if err := parent.ReadAt(runStackBase, before[:]); err != nil {
			t.Fatal(err)
		}
	}
	if d := Lockstep(cloneCPU(fast), fast, budgets...); d != nil {
		name, _, _ := isa.Info(op)
		t.Fatalf("%s run n=%d pad=%d variant=%d rsp=page%+d: %v", name, n, pad, variant, spOff, d)
	}
	if parent != nil {
		if err := parent.ReadAt(runStackBase, after[:]); err != nil || after != before {
			t.Fatalf("the child's stack run reached the parent's pages (%v)", err)
		}
	}
	return fast
}

// TestStackRunVariants: every run kind against every protection variant
// of the middle stack page, with rsp at and across both of its edges,
// agrees with Step — fused where the span is one page the D-TLB passes,
// per instruction (fault address and partial state included) elsewhere.
// With rsp mid-page the run fuses exactly where its per-instruction
// accesses would all be D-TLB hits.
func TestStackRunVariants(t *testing.T) {
	canFuse := func(op isa.Op, variant int) bool {
		switch variant {
		case protRW, protFork:
			return true
		case protRO, protExec, protPkeyWrite:
			return op != isa.OpPush
		}
		return false // PROT_NONE, access-disabled pkey
	}
	for _, op := range []isa.Op{isa.OpPush, isa.OpPop, isa.OpLoad} {
		for variant := 0; variant < protVariants; variant++ {
			for _, spOff := range []int64{-40, 8, 64, mem.PageSize / 2, mem.PageSize - 24, mem.PageSize + 16} {
				c := checkStackRun(t, op, 8, 1, variant, spOff, []int8{0, 16, -8, 43}, []uint64{5, 1 << 10})
				if fused := c.FusedStats().FusedStackInsts > 0; spOff == mem.PageSize/2 && fused != canFuse(op, variant) {
					name, _, _ := isa.Info(op)
					t.Errorf("%s run, variant %d, rsp mid-page: fused = %v, want %v", name, variant, fused, !fused)
				}
			}
		}
	}
}

// FuzzStackRun: random run kind and length (2-16), rsp within a few slots
// of a page edge, any protection variant of the page, load offsets, a
// pending NOP batch and budgets that end mid-run — fused execution agrees
// with Step at every block boundary, memory and fault address included.
func FuzzStackRun(f *testing.F) {
	f.Add(uint8(0), uint8(15), uint8(1), uint8(protRW), int16(0), uint64(0x0102_0304_0506_0708), int64(7))
	f.Add(uint8(1), uint8(7), uint8(3), uint8(protRO), int16(-24), uint64(0x0001_0001_0001_0001), int64(1))
	f.Add(uint8(2), uint8(7), uint8(2), uint8(protPkeyRead), int16(4090), uint64(0x0003_0005_0007_0009), int64(-3))
	f.Add(uint8(0), uint8(16), uint8(0), uint8(protExec), int16(128), uint64(0x0010_0020_0030_0040), int64(99))
	f.Add(uint8(1), uint8(2), uint8(1), uint8(protFork), int16(4096), uint64(0xffff_ffff_ffff_ffff), int64(5))
	f.Fuzz(func(t *testing.T, kind, n, pad, variant uint8, spOff int16, budgets uint64, seed int64) {
		op := [3]isa.Op{isa.OpPush, isa.OpPop, isa.OpLoad}[kind%3]
		r := rand.New(rand.NewSource(seed))
		offs := make([]int8, 16)
		for i := range offs {
			offs[i] = int8(r.Intn(192) - 64)
		}
		var bs []uint64
		for i := 0; i < 4; i++ {
			bs = append(bs, 1+(budgets>>(16*i))&0x3f)
		}
		checkStackRun(t, op, 2+int(n%15), int(pad%4), int(variant%protVariants), int64(spOff%(mem.PageSize+64)), offs, append(bs, 1<<10))
	})
}

// TestFindStackRun pins what a run is: one kind, rsp never its register
// nor, for reloads, any base but rsp; recorded where it starts, only the
// first per block.
func TestFindStackRun(t *testing.T) {
	dec := func(build func(e *isa.Enc)) []isa.Inst {
		var e isa.Enc
		build(&e)
		var out []isa.Inst
		for off := 0; off < len(e.Buf); {
			in, err := isa.Decode(e.Buf[off:])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, in)
			off += in.Len
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		build func(e *isa.Enc)
		want  stackRun
	}{
		{"none", func(e *isa.Enc) { e.Push(isa.RAX).Nop(1).Pop(isa.RAX) }, noStackRun},
		{"first of two", func(e *isa.Enc) { e.Nop(1).Push(isa.RAX).Push(isa.RBX).Nop(1).Pop(isa.RBX).Pop(isa.RAX) }, stackRun{1, 2}},
		{"kinds do not mix", func(e *isa.Enc) { e.Push(isa.RAX).Pop(isa.RBX).Pop(isa.RCX) }, stackRun{1, 2}},
		{"rsp ends a run", func(e *isa.Enc) { e.Push(isa.RAX).Push(isa.RBX).Push(isa.RSP).Push(isa.RCX) }, stackRun{0, 2}},
		{"loads off rsp only", func(e *isa.Enc) {
			e.Load(isa.RAX, isa.RBP, 0).Load(isa.RBX, isa.RSP, 8).Load(isa.RCX, isa.RSP, -8).Load(isa.RSP, isa.RSP, 0)
		}, stackRun{1, 2}},
	} {
		if got := findStackRun(dec(tc.build), 0); got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
