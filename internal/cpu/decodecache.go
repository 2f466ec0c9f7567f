package cpu

import (
	"slices"
	"sync"

	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
)

// maxInsnLen is the longest instruction encoding (KindRegImm64).
const maxInsnLen = 10

// maxCacheBlocks bounds the per-CPU block map. A build that finds it
// full flushes it (flush): a block on a frame-backed page is then rebuilt
// as a header over the code already published in the frame, so only
// private pages are decoded again.
const maxCacheBlocks = 4096

// blockChunk is how many block headers one allocation holds (newBlock),
// and spawnBlocks the block map's initial size. A cold coreutil run's CPU
// enters 11 to 44 blocks, so a fresh CPU pays a few chunks and no map
// growth; chunks of 16, or a map sized for 64, allocated more bytes per
// run than they saved (EXPERIMENTS.md, "Host-time trajectory").
const (
	blockChunk  = 8
	spawnBlocks = 32
)

// tableSize is the number of slots in the direct-mapped pc→block table
// enter checks before the map. The table is inline in every CPU, so a
// larger one costs a fresh CPU bytes: 64 slots raised coldstart's bytes
// per unit where 32 lowered them, and 256 raised them 5 %
// (EXPERIMENTS.md, "Block table").
const tableSize = 32

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
	// a single load.
	mut uint64

	// fused classifies the block's head as one of the specialized hot
	// idioms (NOP sled, countdown); fusedNone otherwise.
	fused fusedKind
	// run is the block's first stack run (stackrun.go), at == -1 if none.
	run stackRun
	// nopLen is the leading-NOP run length of a fusedNopSled block.
	nopLen int32
}

// DecodeCacheStats counts decode-cache activity, exposed for tests and
// the telemetry layer. Counters are cumulative for the CPU's lifetime.
type DecodeCacheStats struct {
	// Hits counts instructions retired from a cached block.
	Hits uint64
	// Misses counts block entries that found no valid block at RIP and
	// tried a build.
	Misses uint64
	// TableHits counts block entries resolved by the pc→block table,
	// i.e. map lookups avoided.
	TableHits uint64
	// Builds counts blocks predecoded.
	Builds uint64
	// Invalidations counts blocks dropped because a recorded page
	// generation changed (self-modifying code, mprotect, unmap).
	Invalidations uint64
	// RebindFlushes counts whole-cache resets caused by an address-space
	// rebind (execve swaps the CPU to a fresh AddressSpace).
	RebindFlushes uint64
	// OverflowEvictions counts blocks flushed because a build found the
	// map holding maxCacheBlocks.
	OverflowEvictions uint64
}

// decodeCache is the per-CPU decoded-block cache. Its map, table and
// counters are private to its CPU, and every block is validated against
// the AddressSpace generation counters, so two CPUs over one address
// space (CLONE_VM) each observe the other's code writes.
// What CPUs share is the decoded code of frame-backed pages (sharedCode):
// a block built on such a page is a private header over instructions
// decoded once per process and published in the frame.
type decodeCache struct {
	as     *mem.AddressSpace
	blocks map[uint64]*cachedBlock // keyed by block entry pc
	// table is a direct-mapped cache of the map, indexed by entry pc: a
	// slot holds only a block the map holds.
	table  [tableSize]*cachedBlock
	cur    *cachedBlock // block the last instruction retired from
	curIdx int          // next sequential index into cur
	stats  DecodeCacheStats
	fstats FusedStats
	// privateDecodes counts blocks decoded from a page no frame backs
	// (PrivateDecodes).
	privateDecodes uint64
	// free is the unused tail of the chunk block headers are taken from.
	free []cachedBlock
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
	return &decodeCache{as: as, blocks: make(map[uint64]*cachedBlock, spawnBlocks)}
}

// newBlock returns b as a header in the current chunk, starting a new
// chunk of blockChunk headers when it is used up: a fresh CPU that enters
// N blocks allocates N/blockChunk headers' worth of objects, not N. A
// chunk lives while any of its headers is reachable (from the map, the
// table or cur); a dropped header is never reused.
func (dc *decodeCache) newBlock(b cachedBlock) *cachedBlock {
	if len(dc.free) == 0 {
		dc.free = make([]cachedBlock, blockChunk)
	}
	h := &dc.free[0]
	dc.free = dc.free[1:]
	*h = b
	return h
}

// DecodeCacheStats returns a snapshot of the cache counters; zero on a
// reference CPU.
func (c *CPU) DecodeCacheStats() DecodeCacheStats {
	if c.cache == nil {
		return DecodeCacheStats{}
	}
	return c.cache.stats
}

// PrivateDecodes returns how many blocks the CPU decoded from pages no
// frame backs: code written in place that no Protect has sealed since
// (mem.AddressSpace.Protect), such as a page left RWX. Zero on a
// reference CPU. Every written page a Protect makes executable and not
// writable is sealed, whatever the rest of the process has interned, so
// the count is a property of the cell alone.
func (c *CPU) PrivateDecodes() uint64 {
	if c.cache == nil {
		return 0
	}
	return c.cache.privateDecodes
}

// enter resolves RIP to a validated block, leaving it in cur and RIP's
// index in it in curIdx. It tries, in order: the rest of cur, when RIP is
// its next pc; the table slot of RIP (TableHits); the map; a build
// (Misses). A map hit or a build fills the slot. nil means the bytes at
// RIP do not decode into at least one instruction and the caller takes
// the uncached path.
func (dc *decodeCache) enter(c *CPU) *cachedBlock {
	if dc.as != c.AS {
		// The CPU was rebound to a different address space (execve); every
		// cached block belongs to the old one.
		dc.reset(c.AS)
	}
	pc, mut := c.RIP, dc.as.CodeMutations()
	if b, idx := dc.cur, dc.curIdx; b != nil && idx < len(b.pcs) && b.pcs[idx] == pc && dc.current(b, mut) {
		return b
	}
	slot := &dc.table[pc%tableSize]
	b := *slot
	if b != nil && b.entry == pc && dc.current(b, mut) {
		dc.stats.TableHits++
	} else {
		if b = dc.blocks[pc]; b == nil || !dc.current(b, mut) {
			dc.stats.Misses++
			if b = dc.build(pc); b == nil {
				dc.cur = nil
				return nil
			}
		}
		*slot = b
	}
	dc.cur, dc.curIdx = b, 0
	return b
}

// current reports whether b's code is unchanged as of mutation count mut:
// one compare while the count has not moved since b was last validated,
// else revalidate. It inlines into the per-instruction check.
func (dc *decodeCache) current(b *cachedBlock, mut uint64) bool {
	return b.mut == mut || dc.revalidate(b)
}

// revalidate re-checks b's page generations after the mutation count
// moved. On success b is current as of the returned count, so the
// one-compare check applies again until the next code-affecting mutation;
// on failure b is dropped.
func (dc *decodeCache) revalidate(b *cachedBlock) bool {
	if m, ok := dc.as.ValidatePages(b.pages[:b.npages]); ok {
		b.mut = m
		return true
	}
	dc.drop(b)
	return false
}

// drop removes an invalidated block from the map, its table slot and cur.
func (dc *decodeCache) drop(b *cachedBlock) {
	delete(dc.blocks, b.entry)
	if slot := &dc.table[b.entry%tableSize]; *slot == b {
		*slot = nil
	}
	if dc.cur == b {
		dc.cur = nil
	}
	dc.stats.Invalidations++
}

// reset rebinds the cache to as and empties it (execve swaps the CPU to
// a fresh address space).
func (dc *decodeCache) reset(as *mem.AddressSpace) {
	dc.as = as
	dc.flush()
	dc.stats.RebindFlushes++
}

// flush empties the map and the table and clears cur, so nothing built
// before the flush can execute after it, and returns how many blocks the
// map held.
func (dc *decodeCache) flush() uint64 {
	n := len(dc.blocks)
	clear(dc.blocks)
	clear(dc.table[:])
	dc.cur = nil
	return uint64(n)
}

// firstWindow is how many bytes build fetches before it knows how long
// the block is. Most blocks end at a control transfer a few instructions
// in, so fetching through the page end up front would copy up to 4 KiB
// no block decodes. A block still undecided at the window's end
// refetches through its page end.
const firstWindow = 128

// build predecodes a block starting at pc: pc through the first
// terminator, undecodable bytes or the end of pc's page, plus a final
// instruction straddling into the next page. A block on a frame-backed
// page — an image page, the zpoline sled entered at a different offset
// for every syscall number, or code a rewriter or JIT wrote and
// mprotected back to RX, which the address space seals into a frame — is
// decoded once per process: every later build of it is a header over the
// code published in the frame (sharedBlock). Everything else — private
// pages, written and not yet sealed or left writable, and blocks that
// straddle into one — is decoded from a fetch (decode).
func (dc *decodeCache) build(pc uint64) *cachedBlock {
	f, pg, mut := dc.as.ExecFrame(pc)
	b := dc.sharedBlock(f, pc, pg, mut)
	if b == nil {
		if b = dc.decode(pc); b == nil {
			return nil
		}
		if f != nil {
			dc.publish(f, b)
		} else {
			dc.privateDecodes++
		}
	}
	if len(dc.blocks) >= maxCacheBlocks {
		dc.stats.OverflowEvictions += dc.flush()
	}
	dc.blocks[b.entry] = b
	dc.stats.Builds++
	return b
}

// decode builds the block at pc from fetched bytes. It fetches
// firstWindow bytes first and the rest of the page (plus maxInsnLen-1
// straddle bytes) only for a block that runs past them. Each fetch
// snapshots bytes, page generations and mutation count in one walk; the
// second re-copies the window too, so the block records the generations
// of every page it read.
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
			want = full
			n, pages, npages, mut, _ = dc.as.FetchExecGen(pc, s.buf[:want])
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
	b := dc.newBlock(cachedBlock{
		entry: pc, end: pc + uint64(off),
		pcs: slices.Clone(pcs), insts: slices.Clone(insts),
		pages: pages, npages: npages, mut: mut,
	})
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
// its generations — over these slices and this classification.
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
	pages, npages := [2]mem.PageGen{pg}, 1
	if sc.next != nil {
		f2, pg2, _ := dc.as.ExecFrame(sc.end - 1)
		if f2 != sc.next {
			return nil
		}
		pages[1], npages = pg2, 2
	}
	return dc.newBlock(cachedBlock{
		entry: pc, end: sc.end, pcs: sc.pcs, insts: sc.insts,
		pages: pages, npages: npages, mut: mut,
		fused: sc.fused, run: sc.run, nopLen: sc.nopLen,
	})
}

// publish records a block decoded at frame f's page as the frame's
// shared code, when the decode provably read only f and, for a
// straddling block, the frame backing the next page. A block that ends on
// undecodable bytes close enough to the page end that their decode may
// have looked past it is not published: it depends on the next page in a
// way no generation records.
func (dc *decodeCache) publish(f *mem.Frame, b *cachedBlock) {
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
