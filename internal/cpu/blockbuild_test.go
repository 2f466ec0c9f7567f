package cpu

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// The block-build oracle (DESIGN.md §17): build fetches a short window
// and refetches only for blocks that run past it, and serves a block
// entered inside a NOP sled it decoded before as a view of that block.
// Either way the block must be the one a single decode of the whole page
// remainder yields — the build the decode cache had before, kept here as
// the reference.

// nopByte is the encoding of the one-byte NOP sleds are made of.
const nopByte = byte(isa.OpNop)

// wholePageDecode decodes the block at pc from one fetch of pc through
// its page end plus the straddle bytes; nil when nothing decodes.
func wholePageDecode(as *mem.AddressSpace, pc uint64) *cachedBlock {
	limit := int(mem.PageSize - pc&(mem.PageSize-1))
	buf := make([]byte, limit+maxInsnLen-1)
	n, pages, npages, _, _ := as.FetchExecGen(pc, buf)
	if n == 0 {
		return nil
	}
	b := &cachedBlock{entry: pc, pages: pages, npages: npages}
	off := 0
	for off < limit && off < n {
		in, err := isa.Decode(buf[off:n])
		if err != nil {
			break
		}
		b.pcs = append(b.pcs, pc+uint64(off))
		b.insts = append(b.insts, in)
		off += in.Len
		if blockTerminator(&in) {
			break
		}
	}
	if len(b.insts) == 0 {
		return nil
	}
	b.end = pc + uint64(off)
	if off <= limit && b.npages > 1 {
		b.npages = 1
	}
	classifyFused(b)
	return b
}

// diffBlock describes how got differs from want, or returns "".
func diffBlock(got, want *cachedBlock) string {
	switch {
	case got == nil && want == nil:
		return ""
	case got == nil || want == nil:
		return fmt.Sprintf("built %v, reference %v", got != nil, want != nil)
	case got.entry != want.entry || got.end != want.end:
		return fmt.Sprintf("entry/end %#x/%#x, want %#x/%#x", got.entry, got.end, want.entry, want.end)
	case !slices.Equal(got.pcs, want.pcs):
		return fmt.Sprintf("pcs %d long, want %d", len(got.pcs), len(want.pcs))
	case !slices.Equal(got.insts, want.insts):
		return "insts differ"
	case !slices.Equal(got.pages[:got.npages], want.pages[:want.npages]):
		return fmt.Sprintf("pages %v, want %v", got.pages[:got.npages], want.pages[:want.npages])
	case got.fused != want.fused || got.nopLen != want.nopLen:
		return fmt.Sprintf("fused %d/%d, want %d/%d", got.fused, got.nopLen, want.fused, want.nopLen)
	case got.run != want.run:
		return fmt.Sprintf("stack run %+v, want %+v", got.run, want.run)
	}
	return ""
}

// randInst returns the encoding of a random valid instruction that is a
// block terminator exactly when term is set.
func randInst(r *rand.Rand, term bool) []byte {
	var b [maxInsnLen]byte
	for {
		r.Read(b[:])
		if in, err := isa.Decode(b[:]); err == nil && blockTerminator(&in) == term {
			return slices.Clone(b[:in.Len])
		}
	}
}

// randCode returns n bytes of code: NOP runs (some longer than
// firstWindow), straight-line runs, terminators, mov64s (the longest
// encoding, which lands across window edges and the page end) and
// undecodable bytes.
func randCode(r *rand.Rand, n int) []byte {
	var out []byte
	for len(out) < n {
		switch r.Intn(6) {
		case 0:
			out = append(out, bytes.Repeat([]byte{nopByte}, 1+r.Intn(2*firstWindow+64))...)
		case 1, 2:
			for i := r.Intn(30); i >= 0; i-- {
				out = append(out, randInst(r, false)...)
			}
		case 3:
			out = append(out, randInst(r, true)...)
		case 4:
			var e isa.Enc
			e.MovImm64(isa.RDI, r.Int63())
			out = append(out, e.Buf...)
		case 5:
			out = append(out, []byte{0x00, 0xEE}[r.Intn(2)])
		}
	}
	return out[:n]
}

// Layouts of the page after the code page, which decides whether a final
// instruction can straddle.
const (
	nextUnmapped = iota
	nextNoExec
	nextExec
	nextLayouts
)

// codePages maps code[:PageSize] R-X at codeBase and lays out the next
// page per next (holding code[PageSize:] when executable).
func codePages(tb testing.TB, code []byte, next int) *mem.AddressSpace {
	tb.Helper()
	as := mem.NewAddressSpace()
	put := func(addr uint64, prot mem.Prot, b []byte) {
		if err := as.MapFixed(addr, mem.PageSize, prot); err != nil {
			tb.Fatal(err)
		}
		if err := as.WriteForce(addr, b); err != nil {
			tb.Fatal(err)
		}
	}
	put(codeBase, mem.ProtRX, code[:mem.PageSize])
	switch next {
	case nextNoExec:
		put(codeBase+mem.PageSize, mem.ProtRW, code[mem.PageSize:])
	case nextExec:
		put(codeBase+mem.PageSize, mem.ProtRX, code[mem.PageSize:])
	}
	return as
}

// checkBuilds builds the blocks at the given code-page offsets, in order,
// through one decode cache — so later entries into a NOP sled are served
// as views of an earlier, lower entry — and compares every block with the
// whole-page reference. An entry already in the cache is compared as
// found. It returns the first difference, or "".
func checkBuilds(as *mem.AddressSpace, offs []int) string {
	dc := newDecodeCache(as)
	for _, off := range offs {
		pc := codeBase + uint64(off)
		got := dc.blocks[pc]
		if got == nil {
			got = dc.build(pc)
		}
		if d := diffBlock(got, wholePageDecode(as, pc)); d != "" {
			return fmt.Sprintf("block at %#x: %s", pc, d)
		}
	}
	return ""
}

// randOffsets returns a shuffled sixth of a page's offsets plus every
// offset near the page end, where instructions straddle.
func randOffsets(r *rand.Rand) []int {
	var offs []int
	for off := 0; off < mem.PageSize; off++ {
		if r.Intn(6) == 0 || off >= mem.PageSize-2*maxInsnLen {
			offs = append(offs, off)
		}
	}
	r.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
	return offs
}

func TestBlockBuildMatchesWholePageDecode(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		as := codePages(t, randCode(r, 2*mem.PageSize), int(seed%nextLayouts))
		if d := checkBuilds(as, randOffsets(r)); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// TestBlockBuildConcurrentCPUs (for -race): CPUs building at once share
// the scratch pool, and CPUs over one address space read its pages
// together; every block still matches the reference.
func TestBlockBuildConcurrentCPUs(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	shared := codePages(t, randCode(r, 2*mem.PageSize), nextExec)
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		r := rand.New(rand.NewSource(g))
		as := shared
		if g%2 == 1 {
			as = codePages(t, randCode(r, 2*mem.PageSize), int(g%nextLayouts))
		}
		offs := randOffsets(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := checkBuilds(as, offs); d != "" {
				t.Errorf("cpu %d: %s", g, d)
			}
		}()
	}
	wg.Wait()
}

// TestNopRunEntriesShareOneDecode: entries into a NOP run longer than the
// window are decoded only when they lie below every earlier entry; each
// other entry is a view of the lowest one's slices. Every block is one
// the guest entered — no block is built for the run's start unless it is
// entered — and each equals the whole-page reference.
func TestNopRunEntriesShareOneDecode(t *testing.T) {
	const runLen = 3 * firstWindow
	var e isa.Enc
	e.Nop(runLen)
	e.MovImm64(isa.RDI, 1)
	e.Hlt()
	code := make([]byte, 2*mem.PageSize)
	copy(code[64:], e.Buf) // the run starts mid-page, after zero padding
	as := codePages(t, code, nextUnmapped)
	dc := newDecodeCache(as)
	start := uint64(codeBase + 64)
	for _, c := range []struct {
		pc, base uint64 // base: the block pc must be a view of; pc itself when decoded
	}{
		{start + 200, start + 200},
		{start + 300, start + 200},
		{start + 5, start + 5},
		{start + runLen - 1, start + 5},
		{start + 200 + 1, start + 5},
		{start + 1, start + 1},
		{start + 2, start + 1},
	} {
		b := dc.build(c.pc)
		if d := diffBlock(b, wholePageDecode(as, c.pc)); d != "" {
			t.Fatalf("block at %#x: %s", c.pc, d)
		}
		base := dc.blocks[c.base]
		if base == nil {
			t.Fatalf("entry %#x: no block at %#x", c.pc, c.base)
		}
		if &b.insts[0] != &base.insts[c.pc-c.base] {
			t.Errorf("entry %#x: want a view of %#x", c.pc, c.base)
		}
		if dc.blocks[start] != nil {
			t.Fatalf("entry %#x: a block was built at the run's start, which was never entered", c.pc)
		}
	}
	if got, want := dc.stats.Builds, uint64(7); got != want {
		t.Errorf("builds = %d, want %d (one per entry)", got, want)
	}
}

// TestSledWriteDropsBaseAndSuffix: a write into a NOP run after a suffix
// was served as a view of a lower entry's block invalidates both blocks,
// and the next entry executes the new bytes — exactly as the uncached CPU
// does.
func TestSledWriteDropsBaseAndSuffix(t *testing.T) {
	const sledLen = 300
	var e isa.Enc
	e.Nop(sledLen)
	e.Hlt()
	var patch isa.Enc
	patch.MovImm64(isa.RDI, 7)
	patch.Hlt()
	entry := uint64(codeBase + 100)
	exec := func(cache bool) (*CPU, []*cachedBlock) {
		c := load(t, e.Buf)
		c.SetDecodeCache(cache)
		// The second entry is served as a view of the first.
		for _, pc := range []uint64{codeBase + 50, entry} {
			c.RIP = pc
			if ev := run(t, c, sledLen+2); ev != EvHlt {
				t.Fatalf("cache=%v: event %v", cache, ev)
			}
		}
		var old []*cachedBlock
		if cache {
			old = []*cachedBlock{c.cache.blocks[codeBase+50], c.cache.blocks[entry]}
			if old[0] == nil || old[1] == nil || &old[1].insts[0] != &old[0].insts[50] {
				t.Fatalf("base %p, suffix %p: both should be cached, the suffix a view", old[0], old[1])
			}
		}
		if err := c.AS.WriteForce(codeBase+150, patch.Buf); err != nil {
			t.Fatal(err)
		}
		c.RIP = entry
		if ev := run(t, c, sledLen+2); ev != EvHlt {
			t.Fatalf("cache=%v: event %v after the write", cache, ev)
		}
		return c, old
	}
	cached, old := exec(true)
	plain, _ := exec(false)
	if cached.Regs[isa.RDI] != 7 {
		t.Errorf("rdi = %d, want 7: the rewritten sled did not execute", cached.Regs[isa.RDI])
	}
	if cached.Cycles != plain.Cycles || cached.Regs != plain.Regs {
		t.Errorf("cached run: %d cycles, regs %v; uncached: %d cycles, regs %v",
			cached.Cycles, cached.Regs, plain.Cycles, plain.Regs)
	}
	for i, b := range old {
		if !b.dropped || cached.cache.blocks[b.entry] == b {
			t.Errorf("block %d at %#x survived the write into its bytes", i, b.entry)
		}
	}
}

func FuzzBlockBuild(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		f.Add(randCode(r, mem.PageSize), uint16(r.Intn(mem.PageSize)), uint16(r.Intn(mem.PageSize)), uint8(seed))
	}
	var sled isa.Enc
	sled.Nop(400)
	sled.Hlt()
	f.Add(sled.Buf, uint16(300), uint16(7), uint8(nextUnmapped))
	f.Fuzz(func(t *testing.T, code []byte, a, b uint16, next uint8) {
		if len(code) == 0 {
			return
		}
		page := make([]byte, 2*mem.PageSize)
		for i := 0; i < len(page); i += len(code) {
			copy(page[i:], code)
		}
		as := codePages(t, page, int(next)%nextLayouts)
		if d := checkBuilds(as, []int{int(a) % mem.PageSize, int(b) % mem.PageSize}); d != "" {
			t.Fatal(d)
		}
	})
}
