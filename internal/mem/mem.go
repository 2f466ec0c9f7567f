// Package mem implements the paged virtual memory substrate of the
// simulated machine: address spaces composed of 4 KiB pages with R/W/X
// permissions, mmap/mprotect/munmap semantics, fork-style copying and
// CLONE_VM-style sharing.
//
// The lazypoline design depends on two memory-system properties that this
// package models faithfully:
//
//   - Page permissions are enforced on every access, including instruction
//     fetch, so the lazy rewriter must (and does) flip a code page to RW
//     before patching it and back to RX afterwards.
//   - Virtual address 0 is mappable (the kernel's mmap_min_addr knob), so
//     the zpoline-style nop-sled trampoline can live there.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// PageSize is the size of one page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Prot is a page protection bitmask.
type Prot uint8

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec

	// ProtNone maps a page with no access.
	ProtNone Prot = 0
	// ProtRW is read+write.
	ProtRW = ProtRead | ProtWrite
	// ProtRX is read+execute — the steady state of code pages.
	ProtRX = ProtRead | ProtExec
	// ProtRWX is full access.
	ProtRWX = ProtRead | ProtWrite | ProtExec
)

// String renders the protection like "r-x".
func (p Prot) String() string {
	b := []byte("---")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// AccessKind describes the kind of memory access that faulted.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
	AccessExec
)

func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	}
	return "unknown"
}

// Fault is the error produced by an access violation. The kernel converts
// it into a SIGSEGV for the guest.
type Fault struct {
	Addr uint64
	Kind AccessKind
	// Pkey marks a protection-key violation (page accessible by its
	// prot bits but blocked by the active PKRU).
	Pkey bool
}

func (f *Fault) Error() string {
	if f.Pkey {
		return fmt.Sprintf("mem: %s pkey fault at %#x", f.Kind, f.Addr)
	}
	return fmt.Sprintf("mem: %s fault at %#x", f.Kind, f.Addr)
}

// ErrBadRange is returned for malformed map/protect/unmap ranges.
var ErrBadRange = errors.New("mem: bad address range")

// ErrOverlap is returned by MapFixed when the range is already mapped.
var ErrOverlap = errors.New("mem: range already mapped")

// ErrNoMem is returned when an allocation is denied by the AllocGate —
// the deterministic fault-injection analogue of a transient
// out-of-memory condition — or would take the address space past
// MaxPages.
var ErrNoMem = errors.New("mem: cannot allocate memory")

// MaxPages is the most pages one address space may have mapped at once
// (1 GiB of guest memory). A mapped page costs the host a header and a map
// entry even while untouched, and the length of an mmap is guest-chosen,
// so without a ceiling one syscall could exhaust the host. The largest
// guest in the tree maps a few hundred pages.
const MaxPages = 1 << 18

// Frame is an immutable page of bytes that any number of address spaces
// map by reference (MapFrames): a loaded image's pages, the kernel's
// vDSO page and the mechanisms' stub pages are built once per process
// and shared by every task that maps them, instead of copied into each
// address space. Its bytes never change; the first write to a page
// backed by a frame gives that page a private copy (page.backing).
//
// A frame also carries a table of values derived from its bytes, which
// the CPUs' decode caches use to share decoded blocks (DESIGN.md §17):
// because the bytes are fixed, a value published for a key stays correct
// for every address space that still maps the frame. The table is opaque
// to this package and safe for concurrent use.
type Frame struct {
	data    [PageSize]byte
	mu      sync.Mutex
	decoded map[uint64]any
}

// maxInterned bounds the frames FramesOf keeps in its table (4 MiB of
// page bytes). Past it, FramesOf builds frames it does not intern: they
// are shared by whoever holds them — an image keeps its own — but not
// found again by content.
const maxInterned = 1024

// interned maps page contents to their frame, so equal bytes built
// anywhere in the process — the same stub encoded by the same attach in
// another kernel — are one frame and share its decoded blocks.
var interned struct {
	sync.Mutex
	frames map[string]*Frame
}

// FramesOf returns the frames of a length-byte mapping holding b
// followed by zeros, for MapFrames: one per page, nil for a page that
// holds no nonzero byte (it stays untouched: demand-zero, DESIGN.md §17).
// Pages are interned by content.
func FramesOf(b []byte, length uint64) []*Frame {
	frames := make([]*Frame, (length+PageSize-1)>>PageShift)
	for off := 0; off < len(b); off += PageSize {
		chunk := b[off:min(off+PageSize, len(b))]
		if !allZero(chunk) {
			frames[off>>PageShift] = intern(chunk)
		}
	}
	return frames
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// intern returns the interned frame holding b (at most PageSize bytes)
// followed by zeros.
func intern(b []byte) *Frame {
	interned.Lock()
	defer interned.Unlock()
	if f := interned.frames[string(b)]; f != nil {
		return f
	}
	f := new(Frame)
	copy(f.data[:], b)
	if len(interned.frames) < maxInterned {
		if interned.frames == nil {
			interned.frames = make(map[string]*Frame)
		}
		interned.frames[string(b)] = f
	}
	return f
}

// Decoded returns the value published for key, or nil.
func (f *Frame) Decoded(key uint64) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.decoded[key]
}

// Publish records v for key unless a value is recorded already: the
// first publisher wins, so every reader of key sees one value.
func (f *Frame) Publish(key uint64, v any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.decoded[key]; ok {
		return
	}
	if f.decoded == nil {
		f.decoded = make(map[uint64]any)
	}
	f.decoded[key] = v
}

// page is one 4 KiB page.
type page struct {
	// data is the page's backing array, nil until the page is first
	// written or handed out by PageForAccess (demand-zero): an untouched
	// page reads as zeros and costs no backing memory. Materialising it
	// issues no generation, because nothing can be stale: no PageHandle
	// aliases a page without backing, and the bytes every reader saw
	// before (zeros) are the bytes the new array holds. Set under the
	// write lock only.
	data *[PageSize]byte
	// frame, if non-nil, is the shared frame data aliases: the page's
	// bytes are read in place and never written. The first locked write
	// privatizes the page (backing): it copies the frame, drops it and,
	// like every write, issues a fresh generation, so blocks decoded from
	// the frame stop validating for this address space alone.
	frame *Frame
	prot  Prot
	pkey  uint8
	// gen is the page's generation: a value unique within the address
	// space's lifetime, replaced on every locked write to the page and on
	// every protection or pkey change, and set to the never-issued value 0
	// when the page is unmapped. Decoded-code caches record the
	// generations of the pages they predecoded and revalidate against
	// them, which is how run-time code rewriting (lazypoline's SIGSYS-time
	// patch, the JIT's code emission, zpoline's scans) invalidates stale
	// decodes — the simulator's analogue of x86 icache coherence on
	// self-modifying code. Software TLBs (internal/cpu) hold PageHandles
	// and compare this field lock-free on every hit, which is why it is
	// atomic: stores happen under mu, loads happen from the CPU's
	// zero-lock data fast path.
	gen atomic.Uint64
}

// AddressSpace is a guest virtual address space. It is safe for concurrent
// use; the kernel serialises guest execution, but host-side tooling (the
// Pin analogue, tracers) may inspect memory concurrently.
//
// Multiple tasks may share one AddressSpace (CLONE_VM); fork copies it.
type AddressSpace struct {
	mu    sync.RWMutex
	pages map[uint64]*page // keyed by page number (addr >> PageShift)
	brk   uint64           // next unreserved address for anonymous mmap
	// activePKRU is the PKRU of the currently scheduled task. Atomic, not
	// under mu: WRPKRU stores it twice per syscall under lazypoline's MPK
	// option, and the locked access paths only load it.
	activePKRU atomic.Uint32

	// genSeq issues page generations (under mu). Generations are never
	// reused, so a page unmapped and remapped at the same address can
	// never revalidate a stale cached decode.
	genSeq uint64
	// codeMut counts code-affecting mutations: writes that touch an
	// executable page, and every Protect/Unmap/MapFixed/MapFrames/MapAnon. It is
	// read lock-free by the CPU's decode-cache fast path; while it is
	// unchanged, every previously validated block is still valid.
	codeMut atomic.Uint64
	// faults counts access violations (unmapped pages, protection and
	// pkey denials, exec fetch faults) for the telemetry layer. Atomic
	// because the exec-fetch paths count under the read lock.
	faults atomic.Uint64

	// AllocGate, if set, is consulted before every page allocation
	// (MapFixed, MapFrames, MapAnon). Returning false denies the allocation with
	// ErrNoMem. The kernel wires this to the chaos engine's allocation-
	// failure stream; the gate must be deterministic for a given call
	// sequence. Clone does not copy it — the owner re-installs it on
	// the copy. It is only read from the kernel's scheduling goroutine.
	AllocGate func(pages uint64) bool

	// owner is an opaque scheduler cookie: the task currently executing
	// on this address space, set for the duration of each quantum. It is
	// written and read only by the goroutine running that quantum (the
	// AllocGate fires from inside the quantum's own allocation calls),
	// and cross-quantum ordering is given by the scheduler's round
	// barrier, so a plain field suffices. Clone does not copy it.
	owner any
}

// SetOwner records the scheduler cookie (see the owner field).
func (as *AddressSpace) SetOwner(v any) { as.owner = v }

// Owner returns the scheduler cookie (see the owner field).
func (as *AddressSpace) Owner() any { return as.owner }

// spawnPages sizes a new address space's page map for what a spawned task
// maps: its 64-page stack, the vDSO page, an image of a few code pages and
// a 16-page data segment, and the pages a mechanism adds at attach. The
// map then never rehashes as they are mapped one region at a time.
const spawnPages = 96

// NewAddressSpace returns an empty address space. Anonymous (non-fixed)
// mappings are placed from 0x4000_0000 upward.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		pages: make(map[uint64]*page, spawnPages),
		brk:   0x4000_0000,
	}
}

// Clone returns a copy of the address space (fork semantics): private
// pages are copied, frame-backed pages alias the same frame.
func (as *AddressSpace) Clone() *AddressSpace {
	as.mu.RLock()
	defer as.mu.RUnlock()
	c := &AddressSpace{
		pages:  make(map[uint64]*page, len(as.pages)),
		brk:    as.brk,
		genSeq: as.genSeq,
	}
	c.activePKRU.Store(as.activePKRU.Load())
	c.codeMut.Store(as.codeMut.Load())
	hdrs := make([]page, len(as.pages))
	for pn, pg := range as.pages {
		// Field-by-field: the page embeds an atomic generation, which must
		// not be copied as a struct (go vet copylocks).
		cp := &hdrs[len(c.pages)]
		cp.prot, cp.pkey = pg.prot, pg.pkey
		switch {
		case pg.frame != nil:
			cp.data, cp.frame = pg.data, pg.frame
		case pg.data != nil:
			d := *pg.data
			cp.data = &d
		}
		cp.gen.Store(pg.gen.Load())
		c.pages[pn] = cp
	}
	return c
}

// read copies len(dst) bytes of the page from offset po; an untouched page
// reads as zeros. Caller holds mu.
func (pg *page) read(dst []byte, po int) {
	if pg.data == nil {
		clear(dst)
		return
	}
	copy(dst, pg.data[po:])
}

// backing returns the page's private backing array for writing: it
// allocates one on first use and privatizes a frame-backed page by
// copying its frame. Caller holds mu for writing.
func (pg *page) backing() *[PageSize]byte {
	switch {
	case pg.frame != nil:
		d := pg.frame.data
		pg.data, pg.frame = &d, nil
	case pg.data == nil:
		pg.data = new([PageSize]byte)
	}
	return pg.data
}

// nextGen issues a fresh, never-reused page generation. Caller holds mu.
func (as *AddressSpace) nextGen() uint64 {
	as.genSeq++
	return as.genSeq
}

// mapPages installs n pages starting at page number first, each with a
// fresh generation. Page i is backed by frames[i] when frames is non-nil
// and that entry is; every other page is untouched, with no backing array
// allocated (see page.data). The headers of one call share one slice.
// Caller holds mu and has checked the range is free and within MaxPages.
func (as *AddressSpace) mapPages(first, n uint64, prot Prot, frames []*Frame) {
	hdrs := make([]page, n)
	for i := range hdrs {
		pg := &hdrs[i]
		pg.prot = prot
		if frames != nil && frames[i] != nil {
			pg.frame, pg.data = frames[i], &frames[i].data
		}
		pg.gen.Store(as.nextGen())
		as.pages[first+uint64(i)] = pg
	}
	as.codeMut.Add(1)
}

// MapFixed maps [addr, addr+length) with the given protection. addr and
// length must be page-aligned and the range must not wrap the address
// space. It fails with ErrOverlap if any page in the range is already
// mapped and with ErrNoMem past MaxPages.
func (as *AddressSpace) MapFixed(addr, length uint64, prot Prot) error {
	return as.mapFixed(addr, length, prot, nil)
}

// MapFrames maps len(frames) pages from addr with the given protection,
// page i backed by frames[i] by reference — no bytes are copied — or,
// where frames[i] is nil, untouched like a MapFixed page. The checks,
// errors and AllocGate consultation are MapFixed's for the same range.
func (as *AddressSpace) MapFrames(addr uint64, frames []*Frame, prot Prot) error {
	return as.mapFixed(addr, uint64(len(frames))<<PageShift, prot, frames)
}

func (as *AddressSpace) mapFixed(addr, length uint64, prot Prot, frames []*Frame) error {
	if addr%PageSize != 0 || length == 0 || length%PageSize != 0 || addr+length-1 < addr {
		return ErrBadRange
	}
	first, n := addr>>PageShift, length>>PageShift
	if as.AllocGate != nil && !as.AllocGate(n) {
		return ErrNoMem
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if n > MaxPages-uint64(len(as.pages)) {
		return ErrNoMem
	}
	for i := uint64(0); i < n; i++ {
		if _, ok := as.pages[first+i]; ok {
			return fmt.Errorf("%w: page %#x", ErrOverlap, (first+i)<<PageShift)
		}
	}
	as.mapPages(first, n, prot, frames)
	return nil
}

// MapAnon maps length bytes (rounded up to pages) at a kernel-chosen
// address and returns that address. A length that rounds past 2^64 is
// ErrBadRange; one that would exceed MaxPages is ErrNoMem.
func (as *AddressSpace) MapAnon(length uint64, prot Prot) (uint64, error) {
	if length == 0 || length > ^uint64(0)-(PageSize-1) {
		return 0, ErrBadRange
	}
	length = (length + PageSize - 1) &^ (PageSize - 1)
	if as.AllocGate != nil && !as.AllocGate(length>>PageShift) {
		return 0, ErrNoMem
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if length>>PageShift > MaxPages-uint64(len(as.pages)) {
		return 0, ErrNoMem
	}
	// Find a free run starting at brk.
	addr := as.brk
	for {
		first, n := addr>>PageShift, length>>PageShift
		free := true
		for i := uint64(0); i < n; i++ {
			if _, ok := as.pages[first+i]; ok {
				free = false
				addr = (first + i + 1) << PageShift
				break
			}
		}
		if free {
			as.mapPages(first, n, prot, nil)
			as.brk = addr + length
			return addr, nil
		}
	}
}

// Protect changes the protection of [addr, addr+length). Both must be
// page-aligned and every page must be mapped.
func (as *AddressSpace) Protect(addr, length uint64, prot Prot) error {
	if addr%PageSize != 0 || length == 0 || length%PageSize != 0 {
		return ErrBadRange
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	first, n := addr>>PageShift, length>>PageShift
	for i := uint64(0); i < n; i++ {
		if _, ok := as.pages[first+i]; !ok {
			return fmt.Errorf("%w: page %#x not mapped", ErrBadRange, (first+i)<<PageShift)
		}
	}
	for i := uint64(0); i < n; i++ {
		pg := as.pages[first+i]
		pg.prot = prot
		pg.gen.Store(as.nextGen())
	}
	as.codeMut.Add(1)
	return nil
}

// Unmap removes [addr, addr+length). Unmapped pages in the range are
// ignored (Linux munmap semantics).
func (as *AddressSpace) Unmap(addr, length uint64) error {
	if addr%PageSize != 0 || length == 0 || length%PageSize != 0 {
		return ErrBadRange
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	first, n := addr>>PageShift, length>>PageShift
	unmap := func(pn uint64, pg *page) {
		// Tombstone: generation 0 is never issued, so any PageHandle
		// still aliasing this page object can never validate again —
		// even if the address is later remapped to a fresh page.
		pg.gen.Store(0)
		delete(as.pages, pn)
	}
	if n <= uint64(len(as.pages)) {
		for i := uint64(0); i < n; i++ {
			if pg, ok := as.pages[first+i]; ok {
				unmap(first+i, pg)
			}
		}
	} else {
		// The length is guest-chosen (munmap) and may span 2^52 pages;
		// visit the at most MaxPages that exist instead.
		for pn, pg := range as.pages {
			if pn-first < n {
				unmap(pn, pg)
			}
		}
	}
	as.codeMut.Add(1)
	return nil
}

// ProtAt returns the protection of the page containing addr; ok is false
// if the page is unmapped.
func (as *AddressSpace) ProtAt(addr uint64) (Prot, bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	pg, ok := as.pages[addr>>PageShift]
	if !ok {
		return 0, false
	}
	return pg.prot, true
}

// accessRead copies data out while checking the permission bit `need` on
// every touched page. Reads mutate no page state (the fault counter is
// atomic), so the whole multi-page walk runs under a single read-lock
// acquisition — concurrent readers (the Pin analogue, tracers, other
// simulated CPUs over a shared CLONE_VM space) never serialise against
// each other. A fault is reported at the first inaccessible byte; bytes
// before it have already been copied out, matching Linux copy_from_user
// partial-transfer semantics. A nil dst checks n bytes without copying.
func (as *AddressSpace) accessRead(addr uint64, n int, dst []byte, need Prot, kind AccessKind) error {
	as.mu.RLock()
	defer as.mu.RUnlock()
	// Force (kernel-privileged) accesses pass need == ProtRWX and bypass
	// protection keys, like ring-0 accesses with SMAP/PKS aside.
	privileged := need == ProtRWX
	pkru := as.activePKRU.Load()
	off := 0
	for off < n {
		a := addr + uint64(off)
		pg, ok := as.pages[a>>PageShift]
		if !ok || pg.prot&need == 0 {
			as.faults.Add(1)
			return &Fault{Addr: a, Kind: kind}
		}
		if !privileged && kind != AccessExec && !pkeyAllows(pkru, pg.pkey, kind == AccessWrite) {
			as.faults.Add(1)
			return &Fault{Addr: a, Kind: kind, Pkey: true}
		}
		po := int(a & (PageSize - 1))
		chunk := PageSize - po
		if rem := n - off; chunk > rem {
			chunk = rem
		}
		if dst != nil {
			pg.read(dst[off:off+chunk], po)
		}
		off += chunk
	}
	return nil
}

// accessWrite copies data in while checking the permission bit `need` on
// every touched page, issuing a fresh generation per touched page and
// advancing the code-mutation counter when an executable page was
// written. One write-lock acquisition covers the whole multi-page run;
// the fault address is the first inaccessible byte, and pages before it
// keep the bytes already copied (Linux copy_to_user partial-transfer
// semantics).
func (as *AddressSpace) accessWrite(addr uint64, src []byte, need Prot, kind AccessKind) error {
	n := len(src)
	as.mu.Lock()
	defer as.mu.Unlock()
	privileged := need == ProtRWX
	pkru := as.activePKRU.Load()
	off := 0
	execTouched := false
	for off < n {
		a := addr + uint64(off)
		pg, ok := as.pages[a>>PageShift]
		if !ok || pg.prot&need == 0 {
			as.faults.Add(1)
			return &Fault{Addr: a, Kind: kind}
		}
		if !privileged && !pkeyAllows(pkru, pg.pkey, true) {
			as.faults.Add(1)
			return &Fault{Addr: a, Kind: kind, Pkey: true}
		}
		po := int(a & (PageSize - 1))
		chunk := PageSize - po
		if rem := n - off; chunk > rem {
			chunk = rem
		}
		copy(pg.backing()[po:po+chunk], src[off:off+chunk])
		pg.gen.Store(as.nextGen())
		if pg.prot&ProtExec != 0 {
			execTouched = true
		}
		off += chunk
	}
	if execTouched {
		as.codeMut.Add(1)
	}
	return nil
}

// ReadAt reads len(p) bytes at addr, enforcing read permission.
func (as *AddressSpace) ReadAt(addr uint64, p []byte) error {
	return as.accessRead(addr, len(p), p, ProtRead, AccessRead)
}

// CheckRead reports what ReadAt of n bytes at addr would — nil, or the
// same fault, counted the same — without copying anything.
func (as *AddressSpace) CheckRead(addr uint64, n int) error {
	return as.accessRead(addr, n, nil, ProtRead, AccessRead)
}

// WriteAt writes p at addr, enforcing write permission.
func (as *AddressSpace) WriteAt(addr uint64, p []byte) error {
	return as.accessWrite(addr, p, ProtWrite, AccessWrite)
}

// Fetch reads len(p) bytes at addr for instruction fetch, enforcing
// execute permission.
func (as *AddressSpace) Fetch(addr uint64, p []byte) error {
	return as.accessRead(addr, len(p), p, ProtExec, AccessExec)
}

// PageGen records the generation of one page (by page number) observed at
// decode time. A decoded-code cache revalidates its blocks by comparing
// recorded PageGens against the live pages (ValidatePages).
type PageGen struct {
	PN  uint64
	Gen uint64
}

// CodeMutations returns the code-mutation counter: it advances on every
// write that touches an executable page and on every
// MapFixed/MapFrames/MapAnon/Protect/Unmap. It is safe to read lock-free; a decoded
// block validated at mutation count m stays valid while the counter
// still reads m.
func (as *AddressSpace) CodeMutations() uint64 {
	return as.codeMut.Load()
}

// Stats is a snapshot of an address space's observability counters.
type Stats struct {
	// Faults counts access violations surfaced to callers of the
	// checked read/write paths (unmapped, protection, pkey).
	Faults uint64
	// Generations is the number of page-generation bumps issued (every
	// page write or mapping change advances it at least once).
	Generations uint64
	// CodeMutations mirrors CodeMutations().
	CodeMutations uint64
}

// Stats returns the current counters.
func (as *AddressSpace) Stats() Stats {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return Stats{
		Faults:        as.faults.Load(),
		Generations:   as.genSeq,
		CodeMutations: as.codeMut.Load(),
	}
}

// FetchExec reads up to len(p) executable bytes starting at addr in a
// single page-table walk. It returns the number of bytes fetched; when
// that is less than len(p), err is the exec Fault at the first
// unfetchable byte (addr+n), so callers that needed fewer than len(p)
// bytes can ignore it and callers that needed more can report the fault
// at its true address. n == 0 means not even addr itself was fetchable.
func (as *AddressSpace) FetchExec(addr uint64, p []byte) (int, error) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	n, _, _, _, err := as.fetchExecLocked(addr, p, false)
	return n, err
}

// FetchExecGen is FetchExec plus, under the same lock, a snapshot of the
// generations of the touched pages and the current code-mutation count.
// A decoded block built from the returned bytes is valid exactly as long
// as ValidatePages(pages[:npages]) still succeeds, and trivially valid
// while CodeMutations() still returns mut.
func (as *AddressSpace) FetchExecGen(addr uint64, p []byte) (n int, pages [2]PageGen, npages int, mut uint64, err error) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	n, pages, npages, mut, err = as.fetchExecLocked(addr, p, true)
	return
}

func (as *AddressSpace) fetchExecLocked(addr uint64, p []byte, wantGens bool) (n int, pages [2]PageGen, npages int, mut uint64, err error) {
	total := len(p)
	off := 0
	for off < total {
		a := addr + uint64(off)
		pn := a >> PageShift
		pg, ok := as.pages[pn]
		if !ok || pg.prot&ProtExec == 0 {
			return off, pages, npages, as.codeMut.Load(), &Fault{Addr: a, Kind: AccessExec}
		}
		if wantGens && npages < len(pages) {
			pages[npages] = PageGen{PN: pn, Gen: pg.gen.Load()}
			npages++
		}
		po := int(a & (PageSize - 1))
		chunk := PageSize - po
		if rem := total - off; chunk > rem {
			chunk = rem
		}
		pg.read(p[off:off+chunk], po)
		off += chunk
	}
	return total, pages, npages, as.codeMut.Load(), nil
}

// ExecFrame returns the frame backing the page containing addr when that
// page is executable and frame-backed, with, under the same lock, the
// page's generation and the current code-mutation count; f is nil
// otherwise. A decode cache uses it to look blocks up in the frame's
// table without fetching: while the generation is unchanged the page is
// still backed by f, whose bytes never change.
func (as *AddressSpace) ExecFrame(addr uint64) (f *Frame, g PageGen, mut uint64) {
	pn := addr >> PageShift
	as.mu.RLock()
	defer as.mu.RUnlock()
	if pg, ok := as.pages[pn]; ok && pg.frame != nil && pg.prot&ProtExec != 0 {
		return pg.frame, PageGen{PN: pn, Gen: pg.gen.Load()}, as.codeMut.Load()
	}
	return nil, PageGen{}, 0
}

// ValidatePages reports whether every recorded page still exists with an
// unchanged generation. On success it also returns the code-mutation
// count observed under the same lock: the caller's decode is current as
// of mut, so it may skip revalidation while CodeMutations() == mut.
func (as *AddressSpace) ValidatePages(pages []PageGen) (mut uint64, ok bool) {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, want := range pages {
		pg, exists := as.pages[want.PN]
		if !exists || pg.gen.Load() != want.Gen {
			return 0, false
		}
	}
	return as.codeMut.Load(), true
}

// PageHandle is a revalidatable, lock-free view of one mapped page — the
// currency of the CPUs' software D-TLBs. It aliases the page's backing
// bytes directly; while Valid() holds, the page still exists at the page
// number it was looked up under, with the same protection, pkey and
// contents lineage as when the handle was built (any locked write,
// mprotect, pkey change or unmap replaces the generation, and unmap
// additionally tombstones it so a remap at the same address can never
// revalidate a stale handle).
//
// The simulated kernel serialises guest execution, so the single guest
// thread using a handle between Valid() and the data access cannot race
// a mutation; concurrent host-side tooling only reads (under the address
// space lock), which is why the zero-lock data path is sound.
type PageHandle struct {
	// Data aliases the page's 4 KiB backing array.
	Data *[PageSize]byte
	// Gen is the page generation observed when the handle was built.
	Gen uint64
	// Prot and Pkey are the page's protection and protection key at build
	// time (constant while Valid() holds).
	Prot Prot
	Pkey uint8
	// DirectWrite reports whether the holder may store through Data
	// without going back through WriteAt: the page is writable, NOT
	// executable and not Shared. Writes to executable pages must take the
	// locked path so the generation and code-mutation counters advance and
	// decoded-code caches observe the self-modification. Direct stores to
	// data pages deliberately skip the generation bump: nothing stale can
	// result, because every other view of the page (other TLBs, ReadAt,
	// tracers) aliases the same backing array, and prot/pkey did not
	// change.
	DirectWrite bool
	// Shared reports that Data aliases an immutable Frame that other
	// address spaces map too: no store may go through it, privileged or
	// not. The locked write path gives the page a private copy first.
	Shared bool

	gen *atomic.Uint64
}

// Valid reports whether the handle still describes the live page: one
// atomic load, no lock. False after any locked write to the page, any
// protection or pkey change, and forever after unmap.
func (h *PageHandle) Valid() bool { return h.gen != nil && h.gen.Load() == h.Gen }

// PageForAccess looks up the page `pn` for the data-access fast path and
// returns a PageHandle aliasing it. ok is false when the page is
// unmapped. This is the TLB-miss fill path: one read-lock walk amortised
// over every subsequent zero-lock hit. A handle needs bytes to alias, so
// an untouched page gets its backing here, under the write lock.
func (as *AddressSpace) PageForAccess(pn uint64) (PageHandle, bool) {
	as.mu.RLock()
	pg, ok := as.pages[pn]
	if ok && pg.data != nil {
		h := pg.handle()
		as.mu.RUnlock()
		return h, true
	}
	as.mu.RUnlock()
	if !ok {
		return PageHandle{}, false
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if pg, ok = as.pages[pn]; !ok { // unmapped between the two locks
		return PageHandle{}, false
	}
	pg.backing()
	return pg.handle(), true
}

// handle builds the PageHandle of a page that has backing. Caller holds mu.
func (pg *page) handle() PageHandle {
	return PageHandle{
		Data:        pg.data,
		Gen:         pg.gen.Load(),
		Prot:        pg.prot,
		Pkey:        pg.pkey,
		DirectWrite: pg.prot&ProtWrite != 0 && pg.prot&ProtExec == 0 && pg.frame == nil,
		Shared:      pg.frame != nil,
		gen:         &pg.gen,
	}
}

// WriteForce writes p at addr ignoring page protections (kernel-privileged
// write, e.g. signal frame setup or ptrace POKEDATA). It still faults on
// unmapped pages.
func (as *AddressSpace) WriteForce(addr uint64, p []byte) error {
	return as.accessWrite(addr, p, ProtRWX, AccessWrite)
}

// ReadForce reads ignoring protections (kernel-privileged read). It still
// faults on unmapped pages.
func (as *AddressSpace) ReadForce(addr uint64, p []byte) error {
	// Any mapped page passes: request a permission mask that matches any
	// non-zero prot; pages with ProtNone still fault, matching Linux.
	return as.accessRead(addr, len(p), p, ProtRWX, AccessRead)
}

// ReadU64 reads a little-endian uint64 with read permission.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := as.ReadAt(addr, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// WriteU64 writes a little-endian uint64 with write permission.
func (as *AddressSpace) WriteU64(addr, v uint64) error {
	var b [8]byte
	putLeU64(b[:], v)
	return as.WriteAt(addr, b[:])
}

// Mapped reports whether every page of [addr, addr+length) is mapped.
func (as *AddressSpace) Mapped(addr, length uint64) bool {
	as.mu.RLock()
	defer as.mu.RUnlock()
	first := addr >> PageShift
	last := (addr + length - 1) >> PageShift
	for pn := first; pn <= last; pn++ {
		if _, ok := as.pages[pn]; !ok {
			return false
		}
	}
	return true
}

// Regions returns the mapped regions as (addr, length, prot) triples,
// merging adjacent pages with equal protection, sorted by address.
func (as *AddressSpace) Regions() []Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	if len(as.pages) == 0 {
		return nil
	}
	pns := make([]uint64, 0, len(as.pages))
	for pn := range as.pages {
		pns = append(pns, pn)
	}
	sortU64(pns)
	var out []Region
	cur := Region{Addr: pns[0] << PageShift, Length: PageSize, Prot: as.pages[pns[0]].prot}
	for _, pn := range pns[1:] {
		p := as.pages[pn]
		if pn<<PageShift == cur.Addr+cur.Length && p.prot == cur.Prot {
			cur.Length += PageSize
			continue
		}
		out = append(out, cur)
		cur = Region{Addr: pn << PageShift, Length: PageSize, Prot: p.prot}
	}
	return append(out, cur)
}

// Region describes one contiguous mapped range.
type Region struct {
	Addr   uint64
	Length uint64
	Prot   Prot
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func sortU64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
