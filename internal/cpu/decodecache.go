package cpu

import (
	"slices"
	"sync"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// maxInsnLen is the longest instruction encoding (KindRegImm64).
const maxInsnLen = 10

// maxCacheBlocks bounds the per-CPU block map. Overflow evicts the
// oldest-built blocks in deterministic FIFO order (evictBatch at a time)
// instead of flushing the whole map — a full flush would sever every
// chain link and re-decode the entire working set, a perf cliff large
// guests hit repeatedly.
const maxCacheBlocks = 4096

// evictBatch is how many live blocks one overflow eviction removes.
// Evicting in batches amortises the walk; 1/8 of the cache keeps the
// newest 7/8 of the working set intact.
const evictBatch = maxCacheBlocks / 8

// cachedBlock is a predecoded straight-line run of instructions: it starts
// at entry, never crosses into a second page except for a final straddling
// instruction, and ends at the first control transfer, kernel-entry
// instruction (SYSCALL/SYSENTER/HLT/HCALL/TRAP), undecodable bytes, or the
// page boundary.
type cachedBlock struct {
	entry uint64
	// end is the pc one past the final instruction — the fall-through
	// successor's entry.
	end   uint64
	pcs   []uint64
	insts []isa.Inst
	// pages[:npages] are the generations of the page(s) the block was
	// decoded from; the block is valid exactly while they are unchanged.
	pages  [2]mem.PageGen
	npages int
	// mut is the address-space code-mutation count at the last successful
	// validation. While CodeMutations() still returns mut, revalidation is
	// a single lock-free load.
	mut uint64

	// succ holds the lazily chained successor blocks (DESIGN.md §11):
	// slot 0 is the fall-through successor (entry == end), slot 1 a
	// monomorphic slot for the most recent branch target. Links are
	// shortcuts only — every use revalidates entry and generations — and
	// are severed when either endpoint is dropped or evicted.
	succ [2]*cachedBlock
	// preds lists the (block, slot) pairs whose succ points here, so
	// dropping this block can sever every incoming link.
	preds []predLink
	// execCount counts entries at the block head (control-transfer hits
	// and chained transitions); crossing tracePromoteThreshold promotes
	// the block into a trace head.
	execCount uint64
	// trace, if non-nil, is the live promoted trace starting here.
	trace *traceRun
	// traces lists every live trace this block is a constituent of, so
	// dropping the block can invalidate them.
	traces []*traceRun
	// fused classifies the block's head as one of the specialized hot
	// idioms (NOP sled, countdown); fusedNone otherwise.
	fused fusedKind
	// dropped marks a block that left the map (invalidation or overflow
	// eviction); a dropped block must never be linked to or executed
	// through a chain.
	dropped bool
	// run is the block's first stack run (stackrun.go), at == -1 if none.
	run stackRun
	// nopLen is the leading-NOP run length of a fusedNopSled block.
	nopLen int32
}

// predLink is one incoming chain edge: from.succ[slot] == the block
// holding this link in its preds list.
type predLink struct {
	from *cachedBlock
	slot int
}

// DecodeCacheStats counts decode-cache activity, exposed for tests and the
// cpubench tool. Counters are cumulative for the CPU's lifetime: toggling
// the cache off and back on (SetDecodeCache) preserves them, so long-run
// harnesses that re-measure cold-start behaviour mid-run cannot
// under-report (the macrobench per-cell stats rely on this).
type DecodeCacheStats struct {
	// Hits are Steps served from a cached block.
	Hits uint64
	// Misses are Steps that found no valid cached instruction.
	Misses uint64
	// Builds counts blocks predecoded.
	Builds uint64
	// Invalidations counts blocks dropped because a recorded page
	// generation changed (self-modifying code, mprotect, unmap).
	Invalidations uint64
	// RebindFlushes counts whole-cache resets caused by an address-space
	// rebind (execve swaps the CPU to a fresh AddressSpace).
	RebindFlushes uint64
	// OverflowEvictions counts blocks evicted by the FIFO overflow
	// policy when the map reached maxCacheBlocks. Formerly overflow and
	// rebind were conflated in one Flushes counter, which made cpubench
	// flush numbers unattributable.
	OverflowEvictions uint64
}

// decodeCache is the per-CPU decoded-block cache. Its map, chain links,
// traces and counters are private to its CPU, and every block is
// validated against the AddressSpace generation counters, so two CPUs
// over one address space (CLONE_VM) each observe the other's code writes.
// What CPUs share is the decoded code of frame-backed pages (sharedCode):
// a block built on such a page is a private header over instructions
// decoded once per process and published in the frame.
type decodeCache struct {
	as     *mem.AddressSpace
	blocks map[uint64]*cachedBlock // keyed by block entry pc
	cur    *cachedBlock            // block the previous Step executed from
	curIdx int                     // next sequential index into cur
	stats  DecodeCacheStats
	cstats ChainStats
	tstats TraceStats
	// fifo records blocks in build order for deterministic overflow
	// eviction; fifoHead is the first not-yet-popped index. Dropped
	// blocks linger until popped or compacted.
	fifo     []*cachedBlock
	fifoHead int
	// sledBase is the entry of the last block decoded that starts with a
	// NOP sled; later entries inside its sled are views of it (sledSuffix).
	sledBase uint64
}

// buildScratch is build's working memory: the fetch buffer, and the
// decode scratch a block is decoded into — where the slices keep their
// grown capacity from build to build — before it is copied into slices
// allocated once at its length. It is taken from buildScratchPool for
// one build, so the fresh CPU every cold run creates does not allocate
// and grow scratch of its own.
type buildScratch struct {
	buf   [mem.PageSize + maxInsnLen - 1]byte
	pcs   []uint64
	insts []isa.Inst
}

var buildScratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

func newDecodeCache(as *mem.AddressSpace) *decodeCache {
	return &decodeCache{as: as, blocks: make(map[uint64]*cachedBlock)}
}

// SetDecodeCache enables or disables the decoded-instruction cache. The
// cache is semantically invisible — events, traces, faults and cycle
// counts are identical either way — so disabling it is only useful for
// differential testing and for measuring the cache itself.
//
// Counter lifetimes: disabling stashes the cache's cumulative counters
// and re-enabling restores them, so DecodeCacheStats / ChainStats /
// TraceStats report per-CPU totals across toggles rather than silently
// restarting from zero mid-run.
func (c *CPU) SetDecodeCache(on bool) {
	switch {
	case on && c.cache == nil:
		dc := newDecodeCache(c.AS)
		dc.stats = c.savedCacheStats
		dc.cstats = c.savedChainStats
		dc.tstats = c.savedTraceStats
		c.cache = dc
	case !on && c.cache != nil:
		c.savedCacheStats = c.cache.stats
		c.savedChainStats = c.cache.cstats
		c.savedTraceStats = c.cache.tstats
		c.cache = nil
	}
}

// DecodeCacheEnabled reports whether the decoded-instruction cache is on.
func (c *CPU) DecodeCacheEnabled() bool { return c.cache != nil }

// InvalidateDecodeCache discards every cached block. Correctness never
// requires calling it — generation validation catches every code
// mutation — but it is useful to re-measure cold-start behaviour.
func (c *CPU) InvalidateDecodeCache() {
	if c.cache != nil {
		c.cache.reset(c.AS)
	}
}

// DecodeCacheStats returns a snapshot of the cache counters. With the
// cache toggled off it returns the totals accumulated up to the toggle.
func (c *CPU) DecodeCacheStats() DecodeCacheStats {
	if c.cache == nil {
		return c.savedCacheStats
	}
	return c.cache.stats
}

// cachedInst returns the decoded instruction at pc if a validated cached
// block covers it, building a new block on miss. nil means the caller
// must use the uncached fetch+decode path (cache disabled, or the bytes
// at pc do not decode into at least one instruction).
func (c *CPU) cachedInst(pc uint64) *isa.Inst {
	dc := c.cache
	if dc == nil {
		return nil
	}
	if dc.as != c.AS {
		// The CPU was rebound to a different address space (execve); every
		// cached block belongs to the old one.
		dc.reset(c.AS)
	}
	mut := dc.as.CodeMutations()
	// Sequential hit: the previous Step executed cur[curIdx-1] and fell
	// through.
	if b := dc.cur; b != nil && dc.curIdx < len(b.pcs) && b.pcs[dc.curIdx] == pc {
		if b.mut == mut || dc.revalidate(b) {
			dc.stats.Hits++
			in := &b.insts[dc.curIdx]
			dc.curIdx++
			return in
		}
		dc.drop(b)
	}
	// prev is the chain-link source: the block whose final instruction
	// just transferred control to pc (if the previous position was
	// exactly a completed block).
	var prev *cachedBlock
	if c.chaining && c.superblock {
		if p := dc.cur; p != nil && !p.dropped && dc.curIdx == len(p.pcs) {
			prev = p
		}
	}
	// Control-transfer hit: pc is the entry of a cached block.
	if b := dc.blocks[pc]; b != nil {
		if b.mut == mut || dc.revalidate(b) {
			dc.stats.Hits++
			if prev != nil {
				dc.link(prev, b)
			}
			b.execCount++
			dc.cur, dc.curIdx = b, 1
			return &b.insts[0]
		}
		dc.drop(b)
	}
	dc.stats.Misses++
	b := dc.build(pc)
	if b == nil {
		dc.cur = nil
		return nil
	}
	if prev != nil && !prev.dropped {
		// build may have evicted prev for space; only link live blocks.
		dc.link(prev, b)
	}
	b.execCount++
	dc.cur, dc.curIdx = b, 1
	return &b.insts[0]
}

// revalidate re-checks a block's page generations under the address-space
// lock. On success the block is current as of the returned mutation
// count, so the lock-free fast path applies again until the next
// code-affecting mutation.
func (dc *decodeCache) revalidate(b *cachedBlock) bool {
	mut, ok := dc.as.ValidatePages(b.pages[:b.npages])
	if ok {
		b.mut = mut
	}
	return ok
}

// drop removes an invalidated block, severing every chain link and trace
// that touches it.
func (dc *decodeCache) drop(b *cachedBlock) {
	dc.unlink(b)
	delete(dc.blocks, b.entry)
	b.dropped = true
	if dc.cur == b {
		dc.cur = nil
	}
	dc.stats.Invalidations++
}

// evict removes a still-valid block to make room (overflow policy). Same
// unlink discipline as drop, different counter.
func (dc *decodeCache) evict(b *cachedBlock) {
	dc.unlink(b)
	delete(dc.blocks, b.entry)
	b.dropped = true
	if dc.cur == b {
		dc.cur = nil
	}
	dc.stats.OverflowEvictions++
}

// reset discards the whole cache and rebinds it to as. Every block —
// and with it every chain link and trace — is unreachable afterwards
// (cur is nil and the map is empty), so stale structures cannot execute.
func (dc *decodeCache) reset(as *mem.AddressSpace) {
	dc.as = as
	dc.blocks = make(map[uint64]*cachedBlock)
	dc.cur = nil
	dc.fifo = nil
	dc.fifoHead = 0
	dc.stats.RebindFlushes++
}

// evictForSpace pops the oldest live blocks from the build-order FIFO
// until evictBatch have been evicted (or the FIFO is exhausted, which
// cannot happen while the map is full). Deterministic: no map iteration.
func (dc *decodeCache) evictForSpace() {
	evicted := 0
	for evicted < evictBatch && dc.fifoHead < len(dc.fifo) {
		b := dc.fifo[dc.fifoHead]
		dc.fifo[dc.fifoHead] = nil
		dc.fifoHead++
		if b.dropped {
			continue
		}
		dc.evict(b)
		evicted++
	}
	if dc.fifoHead > len(dc.fifo)/2 {
		dc.compactFIFO()
	}
}

// compactFIFO rewrites the FIFO to hold only live blocks, preserving
// build order. Invalidation-dropped blocks stay in the slice until
// popped or compacted, so a JIT-heavy guest could otherwise grow it
// without limit; build triggers compaction whenever the slice doubles
// past the map bound.
func (dc *decodeCache) compactFIFO() {
	live := dc.fifo[dc.fifoHead:]
	out := dc.fifo[:0]
	for _, b := range live {
		if b != nil && !b.dropped {
			out = append(out, b)
		}
	}
	clear(dc.fifo[len(out):cap(dc.fifo)])
	dc.fifo = out
	dc.fifoHead = 0
}

// firstWindow is how many bytes build fetches before it knows how long
// the block is. Most blocks end at a control transfer a few instructions
// in, so fetching through the page end up front would copy up to 4 KiB
// no block decodes. A block still undecided at the window's end
// refetches through its page end.
const firstWindow = 128

// build predecodes a block starting at pc: pc through the first
// terminator, undecodable bytes or the end of pc's page, plus a final
// instruction straddling into the next page. A block entered inside a
// NOP sled decoded before — the zpoline sled, entered at a different
// offset for every syscall number — is not decoded at all: it is a view
// of the block that sled starts (sledSuffix). A block on a frame-backed
// page is not decoded either once any CPU has decoded it: it is a header
// over the code published in the frame (sharedBlock). Everything else —
// private pages, written by a rewriter, a JIT or ptrace, and blocks that
// straddle into one — is decoded from a fetch (decode).
func (dc *decodeCache) build(pc uint64) *cachedBlock {
	if b := dc.sledSuffix(pc); b != nil {
		return b
	}
	f, pg, mut := dc.as.ExecFrame(pc)
	b := dc.sharedBlock(f, pc, pg, mut)
	if b == nil {
		if b = dc.decode(pc); b == nil {
			return nil
		}
		if f != nil {
			dc.publish(f, pg, b)
		}
	}
	if b.fused == fusedNopSled {
		dc.sledBase = pc
	}
	dc.insert(b)
	return b
}

// decode builds the block at pc from fetched bytes. It fetches
// firstWindow bytes first and the rest of the page (plus maxInsnLen-1
// straddle bytes) only for a block that runs past them. Each fetch
// snapshots bytes, page generations and mutation count under one lock
// acquisition; the second re-copies the window too, and decoding restarts
// if pc's page changed in between, so a block never embeds a torn view of
// a concurrent code write.
func (dc *decodeCache) decode(pc uint64) *cachedBlock {
	s := buildScratchPool.Get().(*buildScratch)
	defer buildScratchPool.Put(s)
	limit := int(mem.PageSize - pc&(mem.PageSize-1)) // bytes from pc to its page end
	full := limit + maxInsnLen - 1
	want := min(full, firstWindow)
	n, pages, npages, mut, _ := dc.as.FetchExecGen(pc, s.buf[:want])
	if n == 0 {
		return nil
	}
	pcs, insts := s.pcs[:0], s.insts[:0]
	off := 0
	for off < limit {
		in, err := isa.Decode(s.buf[off:n])
		if err == isa.ErrTruncated && n == want && want < full {
			// The window ended, not executable memory: fetch the rest.
			gen := pages[0].Gen
			want = full
			n, pages, npages, mut, _ = dc.as.FetchExecGen(pc, s.buf[:want])
			if pages[0].Gen != gen {
				pcs, insts, off = pcs[:0], insts[:0], 0
			}
			continue
		}
		if err != nil {
			// Undecodable or truncated bytes are never cached: the uncached
			// path re-derives the fault with its proper address every time.
			break
		}
		pcs = append(pcs, pc+uint64(off))
		insts = append(insts, in)
		off += in.Len
		if blockTerminator(&in) {
			break
		}
	}
	s.pcs, s.insts = pcs, insts
	if len(insts) == 0 {
		return nil
	}
	b := &cachedBlock{
		entry: pc, end: pc + uint64(off),
		pcs: slices.Clone(pcs), insts: slices.Clone(insts),
		pages: pages, npages: npages, mut: mut,
	}
	if off <= limit && b.npages > 1 {
		// No instruction straddled into the next page; do not tie the
		// block's validity to it.
		b.npages = 1
	}
	classifyFused(b)
	return b
}

// sharedCode is the immutable part of a block decoded from a frame-backed
// page, published in the frame (mem.Frame.Publish) under the block's
// entry pc. A frame's bytes never change, so the decode is the block of
// every address space whose page at that pc is still backed by the
// frame; each CPU that enters it builds only its own cachedBlock header —
// chain links, traces, execCount, generations — over these slices and
// this classification, the way sledSuffix views share their base's.
type sharedCode struct {
	end    uint64
	pcs    []uint64
	insts  []isa.Inst
	fused  fusedKind
	run    stackRun
	nopLen int32
	// next is the frame of the following page for a block whose final
	// instruction straddles into it; the block is shared only while that
	// page is backed by the same frame, and validates against both pages.
	next *mem.Frame
}

// sharedBlock returns a header over the code published in frame f for
// pc, whose page generation pg and mutation count mut were observed with
// f; nil when f is nil, nothing is published for pc, or the page after a
// straddling block is not backed by the frame it was decoded from.
func (dc *decodeCache) sharedBlock(f *mem.Frame, pc uint64, pg mem.PageGen, mut uint64) *cachedBlock {
	if f == nil {
		return nil
	}
	sc, _ := f.Decoded(pc).(*sharedCode)
	if sc == nil {
		return nil
	}
	b := &cachedBlock{
		entry: pc, end: sc.end, pcs: sc.pcs, insts: sc.insts,
		pages: [2]mem.PageGen{pg}, npages: 1, mut: mut,
		fused: sc.fused, run: sc.run, nopLen: sc.nopLen,
	}
	if sc.next != nil {
		f2, pg2, _ := dc.as.ExecFrame(sc.end - 1)
		if f2 != sc.next {
			return nil
		}
		b.pages[1], b.npages = pg2, 2
	}
	return b
}

// publish records a block decoded at frame f's page — whose generation
// was pg when f was observed — as the frame's shared code, when the
// decode provably read only f and, for a straddling block, the frame
// backing the next page. A block that ends on undecodable bytes close
// enough to the page end that their decode may have looked past it is
// not published: it depends on the next page in a way no generation
// records.
func (dc *decodeCache) publish(f *mem.Frame, pg mem.PageGen, b *cachedBlock) {
	if b.pages[0] != pg {
		return // the page was written or remapped since f was observed
	}
	sc := &sharedCode{
		end: b.end, pcs: b.pcs, insts: b.insts,
		fused: b.fused, run: b.run, nopLen: b.nopLen,
	}
	pageEnd := b.entry&^(mem.PageSize-1) + mem.PageSize
	switch {
	case b.end > pageEnd:
		f2, pg2, _ := dc.as.ExecFrame(pageEnd)
		if f2 == nil || b.pages[1] != pg2 {
			return
		}
		sc.next = f2
	case b.end < pageEnd && b.end+maxInsnLen > pageEnd && !blockTerminator(&b.insts[len(b.insts)-1]):
		return
	}
	f.Publish(b.entry, sc)
}

// sledSuffix returns the block at pc as a view of the sled base — the
// last block decoded that starts with a NOP sled (fusedNopSled) — when pc
// lies inside the base's leading NOPs; nil otherwise, and build decodes
// pc. NOPs are one byte long, so decoding from the base passes through
// pc, and from there on it is the decode of the same bytes up to the same
// page end: the suffix of the base from pc is exactly the block a decode
// at pc would build, valid for as long as the base's pages are. Blocks
// are immutable once built, so the view shares the base's slices.
//
// Every block is still one the guest entered, so builds count as before.
// zpoline's VA-0 sled is decoded at its first entry and again only at an
// entry below all earlier ones (the microbenchmark's exit, 60, after its
// syscall 500); every other entry is a view.
func (dc *decodeCache) sledSuffix(pc uint64) *cachedBlock {
	h := dc.blocks[dc.sledBase]
	if h == nil || h.fused != fusedNopSled || pc <= h.entry || pc-h.entry >= uint64(h.nopLen) {
		return nil
	}
	if h.mut != dc.as.CodeMutations() && !dc.revalidate(h) {
		dc.drop(h)
		return nil
	}
	k := pc - h.entry
	b := &cachedBlock{
		entry: pc, end: h.end,
		pcs: h.pcs[k:], insts: h.insts[k:],
		pages: h.pages, npages: h.npages, mut: h.mut,
	}
	classifyFused(b)
	dc.insert(b)
	return b
}

// insert adds a freshly built block to the map and the eviction FIFO,
// evicting first if the map is full.
func (dc *decodeCache) insert(b *cachedBlock) {
	if len(dc.blocks) >= maxCacheBlocks {
		dc.evictForSpace()
	}
	dc.blocks[b.entry] = b
	dc.fifo = append(dc.fifo, b)
	if len(dc.fifo) >= 2*maxCacheBlocks {
		dc.compactFIFO()
	}
	dc.stats.Builds++
}

// blockTerminator reports whether in ends a predecoded block: control
// transfers (the successor pc is not sequential) and instructions that
// hand control to the kernel.
func blockTerminator(in *isa.Inst) bool {
	switch in.Mnem {
	case isa.MSyscall, isa.MSysenter, isa.MCallReg, isa.MJmpReg:
		return true
	case isa.MOp:
	default:
		return false
	}
	switch in.Op {
	case isa.OpHlt, isa.OpTrap, isa.OpHcall, isa.OpRet, isa.OpCall,
		isa.OpJmp, isa.OpJz, isa.OpJnz, isa.OpJl, isa.OpJg, isa.OpJle, isa.OpJge:
		return true
	}
	return false
}
