package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// Shared blocks (DESIGN.md §3): a block on a frame-backed page is decoded
// once per process and published in the frame; every other CPU that
// enters it builds only a header over that decode. A shared block must be
// the block a fresh decode of the same address space yields, and a write
// that privatizes a page must send its writer — and only its writer —
// back to the fetch-and-decode path.

// framePages maps code R-X at codeBase and lays out the next page per
// next, backed by nextFrame when mapped.
func framePages(tb testing.TB, code, nextFrame *mem.Frame, next int) *mem.AddressSpace {
	tb.Helper()
	as := mem.NewAddressSpace()
	put := func(addr uint64, prot mem.Prot, f *mem.Frame) {
		if err := as.MapFrames(addr, []*mem.Frame{f}, prot); err != nil {
			tb.Fatal(err)
		}
	}
	put(codeBase, mem.ProtRX, code)
	switch next {
	case nextNoExec:
		put(codeBase+mem.PageSize, mem.ProtRW, nextFrame)
	case nextExec:
		put(codeBase+mem.PageSize, mem.ProtRX, nextFrame)
	}
	return as
}

// sharesPublished reports whether b is a header over the code published
// for its entry in the frame backing its page.
func sharesPublished(as *mem.AddressSpace, b *cachedBlock) bool {
	f, _, _ := as.ExecFrame(b.entry)
	if f == nil {
		return false
	}
	sc, _ := f.Decoded(b.entry).(*sharedCode)
	return sc != nil && &sc.insts[0] == &b.insts[0]
}

// TestSharedBlocksMatchFreshDecode: one address space decodes and
// publishes blocks at random entries — straddling ones included — and
// address spaces mapping the same code frame before every layout of the
// next page — the publisher's frame, another frame, a non-executable
// page, none — build their blocks from what was published where it
// applies. Every block equals a whole-page decode of its own space,
// generations included: a block whose decode depended on the next page is
// shared only with spaces that map the same next frame.
func TestSharedBlocksMatchFreshDecode(t *testing.T) {
	shared := 0
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		pages := mem.FramesOf(randCode(r, 3*mem.PageSize), 3*mem.PageSize)
		code, nextFrame, otherFrame := pages[0], pages[1], pages[2]
		offs := randOffsets(r)
		if d := checkBuilds(framePages(t, code, nextFrame, int(seed%nextLayouts)), offs); d != "" {
			t.Fatalf("seed %d, publishing space: %s", seed, d)
		}
		for _, l := range []struct {
			f    *mem.Frame
			next int
		}{{nextFrame, nextExec}, {otherFrame, nextExec}, {nextFrame, nextNoExec}, {nil, nextUnmapped}} {
			as := framePages(t, code, l.f, l.next)
			dc := newDecodeCache(as)
			for _, off := range offs {
				pc := codeBase + uint64(off)
				b := dc.blocks[pc]
				if b == nil {
					b = dc.build(pc)
				}
				if d := diffBlock(b, wholePageDecode(as, pc)); d != "" {
					t.Fatalf("seed %d, sharing space with next layout %d: block at %#x: %s", seed, l.next, pc, d)
				}
				if b != nil && sharesPublished(as, b) {
					shared++
				}
			}
		}
	}
	if shared == 0 {
		t.Fatal("no block was built from published code (vacuous)")
	}
}

// frameCPU maps frames from codeBase with the given protections, one per
// page, plus a stack, and returns a CPU at codeBase.
func frameCPU(t *testing.T, frames []*mem.Frame, prots ...mem.Prot) *CPU {
	t.Helper()
	as := mem.NewAddressSpace()
	for i, f := range frames {
		if err := as.MapFrames(codeBase+uint64(i)*mem.PageSize, []*mem.Frame{f}, prots[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.MapFixed(stackBase, stackSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	c := New(as)
	c.RIP = codeBase
	c.Regs[isa.RSP] = stackBase + stackSize
	return c
}

// TestSharedBlockWriterRedecodes: two address spaces run one frame-backed
// program, the second from the first's published blocks. A patch in the
// first drops its stale block, which it then decodes afresh from its
// private page; the second keeps running the shared blocks, none
// invalidated, with the old bytes.
func TestSharedBlockWriterRedecodes(t *testing.T) {
	var e isa.Enc
	e.MovImm64(isa.RDI, 1)
	e.MovImm64(isa.RCX, 20)
	loop := e.Len()
	e.Add(isa.RBX, isa.RDI)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Hlt()
	frames := mem.FramesOf(e.Buf, mem.PageSize)
	runFrom := func(c *CPU) {
		c.RIP, c.Regs[isa.RBX] = codeBase, 0
		if ev := run(t, c, 200); ev != EvHlt {
			t.Fatalf("event %v", ev)
		}
	}
	writer, other := frameCPU(t, frames, mem.ProtRX), frameCPU(t, frames, mem.ProtRX)
	runFrom(writer)
	runFrom(other)
	if b := other.cache.blocks[codeBase]; b == nil || !sharesPublished(other.AS, b) {
		t.Fatal("the second space's entry block is not built from published code")
	}

	var patch isa.Enc
	patch.MovImm64(isa.RDI, 3)
	if err := writer.AS.WriteForce(codeBase, patch.Buf); err != nil {
		t.Fatal(err)
	}
	runFrom(writer)
	runFrom(other)

	if got := writer.Regs[isa.RBX]; got != 60 {
		t.Errorf("writer: rbx = %d, want 60 from the patched code", got)
	}
	if got := other.Regs[isa.RBX]; got != 20 {
		t.Errorf("other: rbx = %d, want 20 from the shared code", got)
	}
	if writer.DecodeCacheStats().Invalidations == 0 {
		t.Error("the writer's stale block was never invalidated")
	}
	b := writer.cache.blocks[codeBase]
	if b == nil || sharesPublished(writer.AS, b) {
		t.Fatal("the writer's entry block is not a private decode")
	}
	if d := diffBlock(b, wholePageDecode(writer.AS, codeBase)); d != "" {
		t.Errorf("writer's re-decoded block: %s", d)
	}
	if n := other.DecodeCacheStats().Invalidations; n != 0 {
		t.Errorf("the other space had %d invalidations from the writer's patch", n)
	}
	if b := other.cache.blocks[codeBase]; b == nil || !sharesPublished(other.AS, b) {
		t.Error("the other space's entry block stopped being the shared one")
	}
}

// selfPatchingProgram is a loop on an RWX page that, each pass, calls a
// helper on the next (R-X) page and stores its counter into the immediate
// of its own first instruction, so rbx ends at 1 + iters + ... + 2. The
// first pass runs blocks published by an earlier CPU; its store
// privatizes the code page, after which that page's blocks are private
// decodes while the helper page's stay shared.
func selfPatchingProgram(iters int64) []byte {
	var e isa.Enc
	e.MovImm64(isa.R12, iters)
	e.MovImm64(isa.R13, codeBase)
	loop := e.Len()
	e.MovImm64(isa.RDI, 1) // its immediate, at loop+2, is rewritten
	e.Add(isa.RBX, isa.RDI)
	e.Call(int64(mem.PageSize) - int64(e.Len()) - 5)
	e.Store(isa.R13, int64(loop+2), isa.R12)
	e.AddImm(isa.R12, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	e.Hlt()
	var h isa.Enc
	h.MovImm64(isa.R8, 5)
	inner := h.Len()
	h.Add(isa.RCX, isa.RDI)
	h.Push(isa.RCX)
	h.Push(isa.RDI)
	h.Pop(isa.RDX)
	h.Pop(isa.RSI)
	h.AddImm(isa.R8, -1)
	h.Jnz(int64(inner) - int64(h.Len()) - 5)
	h.Ret()
	code := make([]byte, mem.PageSize+h.Len())
	copy(code, e.Buf)
	copy(code[mem.PageSize:], h.Buf)
	return code
}

// TestLockstepSharedBlocksSelfModifying: on a guest whose code page is
// rewritten mid-run, the fast engine running shared blocks agrees with
// Step over a fresh decode of every instruction, at every block boundary.
func TestLockstepSharedBlocksSelfModifying(t *testing.T) {
	const iters = 50
	frames := mem.FramesOf(selfPatchingProgram(iters), 2*mem.PageSize)
	prots := []mem.Prot{mem.ProtRWX, mem.ProtRX}
	publisher := frameCPU(t, frames, prots...)
	for ev := EvNone; ev == EvNone; {
		ev, _, _ = publisher.StepBlock(1 << 20)
	}
	for _, budgets := range [][]uint64{{1 << 20}, {7, 3, 1, 40, 1 << 20}} {
		t.Run(fmt.Sprint(budgets), func(t *testing.T) {
			fast := frameCPU(t, frames, prots...)
			ref := cloneCPU(fast)
			if d := Lockstep(ref, fast, budgets...); d != nil {
				t.Fatal(d)
			}
			if got, want := fast.Regs[isa.RBX], uint64(1+iters*(iters+1)/2-1); got != want {
				t.Errorf("rbx = %d, want %d: the patched immediate did not execute", got, want)
			}
			if f, _, _ := fast.AS.ExecFrame(codeBase); f != nil {
				t.Error("the self-patched code page is still frame-backed")
			}
			if b := fast.cache.blocks[codeBase+mem.PageSize]; b == nil || !sharesPublished(fast.AS, b) {
				t.Error("the helper page's block is not built from published code (vacuous)")
			}
		})
	}
}
