package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// The model below is the eager address space the demand-zero one replaced:
// every mapped page owns a zeroed array from the moment it is mapped, and
// the generation and code-mutation counters follow the documented rules.
// The random programs drive both and require the same bytes, the same
// fault addresses and the same counters after every operation, so a page
// that has no backing yet can differ from an eagerly zeroed one in nothing
// a caller can observe.

const (
	modelBase  = 0x10000
	modelPages = 12
)

type modelPage struct {
	data [PageSize]byte
	prot Prot
	// lent marks a page an alias backed with a lent frame and no write
	// has privatized since: its handle is shared, never direct.
	lent bool
}

type modelSpace struct {
	pages   map[uint64]*modelPage
	gens    uint64
	codeMut uint64
	faults  uint64
}

func newModelSpace() *modelSpace { return &modelSpace{pages: map[uint64]*modelPage{}} }

func (m *modelSpace) clone() *modelSpace {
	c := &modelSpace{pages: map[uint64]*modelPage{}, gens: m.gens, codeMut: m.codeMut}
	for pn, pg := range m.pages {
		cp := *pg
		c.pages[pn] = &cp
	}
	return c
}

func (m *modelSpace) allMapped(first, n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if m.pages[first+i] == nil {
			return false
		}
	}
	return true
}

func (m *modelSpace) anyMapped(first, n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if m.pages[first+i] != nil {
			return true
		}
	}
	return false
}

func (m *modelSpace) install(first, n uint64, prot Prot) {
	for i := uint64(0); i < n; i++ {
		m.pages[first+i] = &modelPage{prot: prot}
	}
	m.gens += n
	m.codeMut++
}

// read returns how many bytes are readable from addr with permission need
// (a fault address of addr+n when n < len(dst)).
func (m *modelSpace) read(addr uint64, dst []byte, need Prot) int {
	for i := range dst {
		a := addr + uint64(i)
		pg := m.pages[a>>PageShift]
		if pg == nil || pg.prot&need == 0 {
			return i
		}
		dst[i] = pg.data[a&(PageSize-1)]
	}
	return len(dst)
}

// write mirrors accessWrite: one generation per touched page, one code
// mutation when an executable page was touched — but only on a write that
// completes, which is what the implementation has always done.
func (m *modelSpace) write(addr uint64, src []byte, need Prot) int {
	exec := false
	lastPN := ^uint64(0)
	for i := range src {
		a := addr + uint64(i)
		pn := a >> PageShift
		pg := m.pages[pn]
		if pg == nil || pg.prot&need == 0 {
			return i
		}
		if pn != lastPN {
			lastPN = pn
			m.gens++
			exec = exec || pg.prot&ProtExec != 0
			pg.lent = false
		}
		pg.data[a&(PageSize-1)] = src[i]
	}
	if exec {
		m.codeMut++
	}
	return len(src)
}

// modelPair is one address space under test beside its model.
type modelPair struct {
	as *AddressSpace
	m  *modelSpace
}

func (p modelPair) checkCounters(t *testing.T, op string) {
	t.Helper()
	st := p.as.Stats()
	if st.Generations != p.m.gens || p.as.CodeMutations() != p.m.codeMut || st.Faults != p.m.faults {
		t.Fatalf("after %s: generations/codeMutations/faults = %d/%d/%d, eager model %d/%d/%d",
			op, st.Generations, p.as.CodeMutations(), st.Faults, p.m.gens, p.m.codeMut, p.m.faults)
	}
}

// checkFault requires err to be nil exactly when the model transferred
// everything, and otherwise a Fault at the model's first bad byte.
func checkFault(t *testing.T, op string, err error, addr uint64, done, total int) {
	t.Helper()
	fa, faulted := faultAddr(t, err)
	if faulted != (done < total) || (faulted && fa != addr+uint64(done)) {
		t.Fatalf("%s(%#x, %d): fault (%#x,%v), model transferred %d", op, addr, total, fa, faulted, done)
	}
}

func (p modelPair) checkContents(t *testing.T) {
	t.Helper()
	buf := make([]byte, PageSize)
	for pn := uint64(modelBase >> PageShift); pn < modelBase>>PageShift+modelPages; pn++ {
		err := p.as.ReadForce(pn<<PageShift, buf)
		pg := p.m.pages[pn]
		switch {
		case pg == nil || pg.prot == ProtNone:
			if err == nil {
				t.Fatalf("page %#x readable, model has it unmapped or PROT_NONE", pn)
			}
			p.m.faults++ // the probe itself faulted
		case err != nil:
			t.Fatalf("page %#x: %v, model has it mapped", pn, err)
		case !bytes.Equal(buf, pg.data[:]):
			t.Fatalf("page %#x contents diverge from the model", pn)
		}
	}
}

// modelOpNames names runModelProgram's operations, by opcode. "Protect
// RX" is Protect to R-X, which seals every written page of the range into
// a shared frame; the model has no frames, and needs none. "MapFixed
// long" maps 4, 8 or 12 pages, and "Unmap all but one" leaves only the
// page at first mapped, which may move to a slab of its own; the model
// has no slabs either. "Alias lent run" backs 1-3 pages with consecutive
// lent frames of one file, which the model takes as a WriteAt of their
// bytes over pages that are all mapped, writable and not executable, and
// as nothing otherwise.
var modelOpNames = [13]string{"MapFixed", "MapFixed long", "Unmap", "Protect", "WriteAt",
	"WriteForce", "read", "FetchExecGen", "PageForAccess", "Clone", "Protect RX",
	"Unmap all but one", "Alias lent run"}

// runModelProgram interprets prog as a sequence of operations over up to
// four address spaces (clones of one another).
func runModelProgram(t *testing.T, prog []byte) {
	isolateInterned(t)
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	pairs := []modelPair{{NewAddressSpace(), newModelSpace()}}
	file, frames := lentFile()
	fileWas := bytes.Clone(file)
	for len(prog) > 0 {
		op := next() % uint64(len(modelOpNames))
		p := pairs[next()%uint64(len(pairs))]
		first := modelBase>>PageShift + next()%modelPages
		n := 1 + next()%3
		addr := first<<PageShift + next()*17%PageSize
		length := int(next()*37) % (2*PageSize + 17)
		prot := Prot(next() % 8)
		fill := byte(next())
		switch op {
		case 0, 1: // map
			if op == 1 {
				n *= 4
			}
			err := p.as.MapFixed(first<<PageShift, n<<PageShift, prot)
			if p.m.anyMapped(first, n) {
				if !errors.Is(err, ErrOverlap) {
					t.Fatalf("MapFixed over a mapped page: %v", err)
				}
			} else if err != nil {
				t.Fatalf("MapFixed: %v", err)
			} else {
				p.m.install(first, n, prot)
			}
		case 2: // unmap
			if err := p.as.Unmap(first<<PageShift, n<<PageShift); err != nil {
				t.Fatalf("Unmap: %v", err)
			}
			for i := uint64(0); i < n; i++ {
				delete(p.m.pages, first+i)
			}
			p.m.codeMut++
		case 11: // unmap every page a map can reach but first
			lo, hi := uint64(modelBase>>PageShift), uint64(modelBase>>PageShift+2*modelPages)
			for _, r := range [2][2]uint64{{lo, first}, {first + 1, hi}} {
				if r[0] == r[1] {
					continue
				}
				if err := p.as.Unmap(r[0]<<PageShift, (r[1]-r[0])<<PageShift); err != nil {
					t.Fatalf("Unmap: %v", err)
				}
				for pn := r[0]; pn < r[1]; pn++ {
					delete(p.m.pages, pn)
				}
				p.m.codeMut++
			}
		case 3, 10: // protect
			if op == 10 {
				prot = ProtRX
			}
			err := p.as.Protect(first<<PageShift, n<<PageShift, prot)
			if !p.m.allMapped(first, n) {
				if !errors.Is(err, ErrBadRange) {
					t.Fatalf("Protect over a hole: %v", err)
				}
			} else if err != nil {
				t.Fatalf("Protect: %v", err)
			} else {
				for i := uint64(0); i < n; i++ {
					p.m.pages[first+i].prot = prot
				}
				p.m.gens += n
				p.m.codeMut++
			}
		case 4, 5: // write, checked or privileged
			src := bytes.Repeat([]byte{fill}, length)
			for i := range src {
				src[i] += byte(i)
			}
			write, need, name := p.as.WriteAt, ProtWrite, "WriteAt"
			if op == 5 {
				write, need, name = p.as.WriteForce, ProtRWX, "WriteForce"
			}
			done := p.m.write(addr, src, need)
			if done < length {
				p.m.faults++
			}
			checkFault(t, name, write(addr, src), addr, done, length)
		case 6: // read, checked or privileged
			read, need, name := p.as.ReadAt, ProtRead, "ReadAt"
			if fill&1 != 0 {
				read, need, name = p.as.ReadForce, ProtRWX, "ReadForce"
			}
			got := bytes.Repeat([]byte{0xA5}, length) // stale bytes a zero page must overwrite
			want := bytes.Repeat([]byte{0xA5}, length)
			done := p.m.read(addr, want, need)
			if done < length {
				p.m.faults++
			}
			checkFault(t, name, read(addr, got), addr, done, length)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s(%#x, %d): bytes diverge from the model", name, addr, length)
			}
		case 7: // exec fetch
			got := bytes.Repeat([]byte{0xA5}, length)
			want := bytes.Repeat([]byte{0xA5}, length)
			done := p.m.read(addr, want, ProtExec)
			gn, pages, npages, mut, err := p.as.FetchExecGen(addr, got)
			if gn != done {
				t.Fatalf("FetchExecGen(%#x, %d) = %d bytes, model %d", addr, length, gn, done)
			}
			checkFault(t, "FetchExecGen", err, addr, done, length)
			if !bytes.Equal(got, want) {
				t.Fatalf("FetchExecGen(%#x, %d): bytes diverge from the model", addr, length)
			}
			if mut != p.m.codeMut {
				t.Fatalf("FetchExecGen mut = %d, model %d", mut, p.m.codeMut)
			}
			if _, ok := p.as.ValidatePages(pages[:npages]); !ok {
				t.Fatalf("FetchExecGen(%#x): fresh page generations do not validate", addr)
			}
		case 8: // TLB fill, then a read or a direct store through the handle
			h, ok := p.as.PageForAccess(first)
			pg := p.m.pages[first]
			if ok != (pg != nil) {
				t.Fatalf("PageForAccess(%#x) ok=%v, model mapped=%v", first, ok, pg != nil)
			}
			if !ok {
				break
			}
			direct := pg.prot&ProtWrite != 0 && pg.prot&ProtExec == 0 && !pg.lent
			if h.Prot != pg.prot || h.DirectWrite != direct || !h.Valid() {
				t.Fatalf("PageForAccess(%#x) = prot %v direct %v valid %v, model prot %v direct %v",
					first, h.Prot, h.DirectWrite, h.Valid(), pg.prot, direct)
			}
			if *h.Data != pg.data {
				t.Fatalf("PageForAccess(%#x): handle bytes diverge from the model", first)
			}
			if direct {
				off := addr & (PageSize - 1)
				h.Data[off], pg.data[off] = fill, fill
			}
		case 12: // alias a lent run
			j := uint64(fill) % (uint64(len(frames)) - n + 1)
			ok := p.m.allMapped(first, n)
			for i := uint64(0); ok && i < n; i++ {
				ok = p.m.pages[first+i].prot&(ProtWrite|ProtExec) == ProtWrite
			}
			if got := p.as.Alias(first<<PageShift, frames[j:j+n]); got != ok {
				t.Fatalf("Alias(%#x, %d frames) = %v, model %v", first<<PageShift, n, got, ok)
			}
			if ok {
				p.m.write(first<<PageShift, file[j*PageSize:(j+n)*PageSize], ProtWrite)
				for i := uint64(0); i < n; i++ {
					p.m.pages[first+i].lent = true
				}
			}
		case 9: // fork
			if len(pairs) < 4 {
				c := modelPair{p.as.Clone(), p.m.clone()}
				c.checkContents(t)
				c.checkCounters(t, "Clone (child)")
				pairs = append(pairs, c)
			}
		}
		p.checkCounters(t, modelOpNames[op])
	}
	for _, p := range pairs {
		p.checkContents(t)
	}
	if !bytes.Equal(file, fileWas) {
		t.Fatal("a lent file's bytes changed")
	}
}

func TestDemandZeroMatchesEagerModel(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		prog := make([]byte, 8*300)
		rand.New(rand.NewSource(seed)).Read(prog)
		runModelProgram(t, prog)
	}
}

func FuzzDemandZeroModel(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		prog := make([]byte, 8*64)
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runModelProgram(t, prog) })
}

// allocatedBytes returns the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestUntouchedMappingAllocatesNoBacking(t *testing.T) {
	const pages = 64 // a task's stack
	as := NewAddressSpace()
	mapped := allocatedBytes(func() {
		if err := as.MapFixed(0x100000, pages*PageSize, ProtRW); err != nil {
			t.Fatal(err)
		}
	})
	// Headers and map entries only: ~100 B a page, against 4 KiB a page
	// (256 KiB) when every page was backed at map time.
	if mapped > 16<<10 {
		t.Errorf("mapping %d untouched pages allocated %d bytes, want a few KiB", pages, mapped)
	}
	buf := make([]byte, pages*PageSize)
	if read := allocatedBytes(func() {
		if err := as.ReadAt(0x100000, buf); err != nil {
			t.Fatal(err)
		}
	}); read > 1<<10 {
		t.Errorf("reading untouched pages allocated %d bytes, want none", read)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched page does not read as zeros")
		}
	}
	touched := allocatedBytes(func() {
		if err := as.WriteAt(0x100000+5*PageSize+7, []byte{1}); err != nil {
			t.Fatal(err)
		}
		if _, ok := as.PageForAccess(0x100000>>PageShift + 9); !ok {
			t.Fatal("PageForAccess on a mapped page failed")
		}
	})
	if touched < 2*PageSize || touched > 2*PageSize+1<<10 {
		t.Errorf("touching two pages allocated %d bytes, want two page arrays", touched)
	}
	cloned := allocatedBytes(func() { as.Clone() })
	if cloned > 2*PageSize+16<<10 {
		t.Errorf("Clone with two touched pages of %d allocated %d bytes, want two page arrays plus headers", pages, cloned)
	}
}

// TestCloneIsolation: after Clone, a write on either side is invisible to
// the other, whether the page had backing at the time of the clone or not,
// and whether the write is a locked one or a direct store through a handle.
func TestCloneIsolation(t *testing.T) {
	const touched, untouched = 0x1000, 0x2000
	readByte := func(as *AddressSpace, addr uint64) byte {
		t.Helper()
		var b [1]byte
		if err := as.ReadAt(addr, b[:]); err != nil {
			t.Fatal(err)
		}
		return b[0]
	}
	for _, parentWrites := range []bool{true, false} {
		parent := NewAddressSpace()
		if err := parent.MapFixed(0x1000, 2*PageSize, ProtRW); err != nil {
			t.Fatal(err)
		}
		if err := parent.WriteAt(touched, []byte{7}); err != nil {
			t.Fatal(err)
		}
		child := parent.Clone()
		writer, other := parent, child
		if !parentWrites {
			writer, other = child, parent
		}
		for _, addr := range []uint64{touched, untouched} {
			before := readByte(other, addr+1)
			if err := writer.WriteAt(addr+1, []byte{0xEE}); err != nil {
				t.Fatal(err)
			}
			h, ok := writer.PageForAccess(addr >> PageShift)
			if !ok || !h.DirectWrite {
				t.Fatalf("PageForAccess(%#x) = ok %v direct %v", addr, ok, h.DirectWrite)
			}
			h.Data[2] = 0xDD
			if got := readByte(writer, addr+2); got != 0xDD {
				t.Errorf("parentWrites=%v: direct store at %#x not visible to its own space (%#x)", parentWrites, addr+2, got)
			}
			if got := readByte(other, addr+1); got != before {
				t.Errorf("parentWrites=%v: locked write at %#x leaked across Clone (%#x)", parentWrites, addr+1, got)
			}
			if got := readByte(other, addr+2); got != 0 {
				t.Errorf("parentWrites=%v: direct store at %#x leaked across Clone (%#x)", parentWrites, addr+2, got)
			}
		}
		if got := readByte(other, touched); got != 7 {
			t.Errorf("parentWrites=%v: pre-clone byte = %#x on the other side, want 7", parentWrites, got)
		}
	}
}

// TestInterleavedMaterialise: whole-mapping reads interleaved with the
// guest side giving each page its backing — through PageForAccess before
// the first write on even pages, through the write itself on odd ones —
// see every byte as zero or as the value written. A write lands in the
// array PageForAccess handed out and invalidates its handle.
func TestInterleavedMaterialise(t *testing.T) {
	const pages, base = 32, 0x100000
	as := NewAddressSpace()
	if err := as.MapFixed(base, pages*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pages*PageSize)
	check := func(written int) {
		t.Helper()
		if err := as.ReadAt(base, buf); err != nil {
			t.Fatal(err)
		}
		for off, b := range buf {
			want := byte(0)
			if off%PageSize == 8 && off/PageSize < written {
				want = 0x5A
			}
			if b != want {
				t.Fatalf("after %d writes: byte %#x at offset %#x, want %#x", written, b, off, want)
			}
		}
	}
	for i := 0; i < pages; i++ {
		pn := uint64(base>>PageShift + i)
		var h PageHandle
		if i%2 == 0 {
			var ok bool
			if h, ok = as.PageForAccess(pn); !ok {
				t.Fatal("PageForAccess failed on a mapped page")
			}
		}
		check(i)
		if err := as.WriteAt(pn<<PageShift+8, []byte{0x5A}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && (h.Valid() || h.Data[8] != 0x5A) {
			t.Fatalf("page %d: handle valid=%v, its byte %#x: the write missed the array it aliases", i, h.Valid(), h.Data[8])
		}
		if h2, ok := as.PageForAccess(pn); !ok || !h2.Valid() || h2.Data[8] != 0x5A {
			t.Fatalf("page %d: PageForAccess after the write: ok=%v", i, ok)
		}
		check(i + 1)
	}
}
