package mem

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMapReadWrite(t *testing.T) {
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, lazypoline")
	if err := as.WriteAt(0x1ff8, data); err != nil { // crosses a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadAt(0x1ff8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q, want %q", got, data)
	}
}

func TestMapAddressZero(t *testing.T) {
	// zpoline's trampoline depends on VA 0 being mappable.
	as := NewAddressSpace()
	if err := as.MapFixed(0, PageSize, ProtRX); err != nil {
		t.Fatalf("mapping VA 0: %v", err)
	}
	var b [2]byte
	if err := as.Fetch(0, b[:]); err != nil {
		t.Fatalf("fetching VA 0: %v", err)
	}
}

func TestPermissionFaults(t *testing.T) {
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	var b [1]byte

	if err := as.ReadAt(0x1000, b[:]); err != nil {
		t.Errorf("read on r-- page: %v", err)
	}
	err := as.WriteAt(0x1000, b[:])
	var f *Fault
	if !errors.As(err, &f) || f.Kind != AccessWrite {
		t.Errorf("write on r-- page: got %v, want write fault", err)
	}
	err = as.Fetch(0x1000, b[:])
	if !errors.As(err, &f) || f.Kind != AccessExec {
		t.Errorf("fetch on r-- page: got %v, want exec fault", err)
	}
	err = as.ReadAt(0x9000, b[:])
	if !errors.As(err, &f) || f.Addr != 0x9000 {
		t.Errorf("read unmapped: got %v, want fault at 0x9000", err)
	}
}

func TestProtectFlipsCodePage(t *testing.T) {
	// The lazy rewriter's critical sequence: RX -> RW -> patch -> RX.
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	patch := []byte{0xFF, 0xD0}
	if err := as.WriteAt(0x1100, patch); err == nil {
		t.Fatal("write to RX page should fault")
	}
	if err := as.Protect(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(0x1100, patch); err != nil {
		t.Fatalf("write to RW page: %v", err)
	}
	if err := as.Protect(0x1000, PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	var got [2]byte
	if err := as.Fetch(0x1100, got[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:], patch) {
		t.Errorf("patched bytes: got % x, want % x", got, patch)
	}
}

func TestOverlapAndBadRanges(t *testing.T) {
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFixed(0x1000, PageSize, ProtRW); !errors.Is(err, ErrOverlap) {
		t.Errorf("overlapping map: got %v, want ErrOverlap", err)
	}
	if err := as.MapFixed(0x1001, PageSize, ProtRW); !errors.Is(err, ErrBadRange) {
		t.Errorf("unaligned map: got %v, want ErrBadRange", err)
	}
	if err := as.MapFixed(0x2000, 0, ProtRW); !errors.Is(err, ErrBadRange) {
		t.Errorf("zero-length map: got %v, want ErrBadRange", err)
	}
	if err := as.Protect(0x5000, PageSize, ProtRW); !errors.Is(err, ErrBadRange) {
		t.Errorf("protect unmapped: got %v, want ErrBadRange", err)
	}
}

func TestUnmap(t *testing.T) {
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x1000, PageSize); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if err := as.ReadAt(0x1000, b[:]); err == nil {
		t.Error("read of unmapped page should fault")
	}
	if err := as.ReadAt(0x2000, b[:]); err != nil {
		t.Errorf("second page should survive: %v", err)
	}
	// munmap over holes is fine.
	if err := as.Unmap(0x1000, 2*PageSize); err != nil {
		t.Errorf("unmap over hole: %v", err)
	}
	// A guest-sized length must cost what is mapped, not what it spans
	// (page by page, 2^51 iterations), and spare what lies outside it.
	if err := as.MapFixed(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFixed(0x9000, 2*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Unmap(0x2000, 1<<63); err != nil {
		t.Fatal(err)
	}
	if want := []Region{{Addr: 0x1000, Length: PageSize, Prot: ProtRW}}; !reflect.DeepEqual(as.Regions(), want) {
		t.Errorf("after a huge unmap from 0x2000: %v, want %v", as.Regions(), want)
	}
}

// TestUnmapSplitsMapping: an Unmap in the middle of a mapping leaves its
// two ends mapped as they were — bytes, handles and all — and a hole the
// next MapFixed fills with fresh pages. Regions merges equal pages across
// the seams, Protect and the overlap check see the pages of every mapping
// a range crosses, a fork copies the split space, and a handle over an
// unmapped page never validates again, not even once the hole is mapped.
func TestUnmapSplitsMapping(t *testing.T) {
	const base = 0x10000
	page := func(i uint64) uint64 { return base + i*PageSize }
	as := NewAddressSpace()
	mustMap(t, as, base, 8*PageSize, ProtRW)
	for i := uint64(0); i < 8; i++ {
		if err := as.WriteAt(page(i), []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	var hs [8]PageHandle
	for i := range hs {
		hs[i] = handle(t, as, page(uint64(i)))
	}
	if err := as.Unmap(page(3), 2*PageSize); err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		if hole := i == 3 || i == 4; h.Valid() == hole {
			t.Errorf("page %d: handle valid %v after unmapping pages 3 and 4", i, h.Valid())
		}
	}
	if as.Mapped(page(2), 2*PageSize) || !as.Mapped(page(0), 3*PageSize) || !as.Mapped(page(5), 3*PageSize) {
		t.Error("Mapped does not see the hole at pages 3 and 4 alone")
	}
	if want := []Region{{page(0), 3 * PageSize, ProtRW}, {page(5), 3 * PageSize, ProtRW}}; !reflect.DeepEqual(as.Regions(), want) {
		t.Errorf("after the unmap: %v, want %v", as.Regions(), want)
	}
	if err := as.MapFixed(page(2), 2*PageSize, ProtRW); !errors.Is(err, ErrOverlap) || !bytes.Contains([]byte(err.Error()), []byte("0x12000")) {
		t.Errorf("MapFixed over page 2 and the hole = %v, want ErrOverlap at 0x12000", err)
	}
	if err := as.Protect(page(2), 2*PageSize, ProtRX); !errors.Is(err, ErrBadRange) || !bytes.Contains([]byte(err.Error()), []byte("0x13000")) {
		t.Errorf("Protect over page 2 and the hole = %v, want ErrBadRange at 0x13000", err)
	}

	// Fill the hole with two mappings, the first one executable.
	mustMap(t, as, page(3), PageSize, ProtRX)
	mustMap(t, as, page(4), PageSize, ProtRW)
	want := []Region{{page(0), 3 * PageSize, ProtRW}, {page(3), PageSize, ProtRX}, {page(4), 4 * PageSize, ProtRW}}
	if !reflect.DeepEqual(as.Regions(), want) {
		t.Errorf("after filling the hole: %v, want %v", as.Regions(), want)
	}
	if hs[3].Valid() || hs[4].Valid() {
		t.Error("a handle over an unmapped page validates once its address is mapped again")
	}
	for i := uint64(0); i < 8; i++ {
		var b [1]byte
		if err := as.ReadForce(page(i), b[:]); err != nil {
			t.Fatal(err)
		}
		want := byte(i + 1)
		if i == 3 || i == 4 {
			want = 0 // a fresh page
		}
		if b[0] != want {
			t.Errorf("page %d reads %#x, want %#x", i, b[0], want)
		}
	}
	// A Protect across both seams changes every page it names.
	if err := as.Protect(page(2), 3*PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	want = []Region{{page(0), 2 * PageSize, ProtRW}, {page(2), 3 * PageSize, ProtRX}, {page(5), 3 * PageSize, ProtRW}}
	if !reflect.DeepEqual(as.Regions(), want) {
		t.Errorf("after a Protect across the seams: %v, want %v", as.Regions(), want)
	}

	child := as.Clone()
	if !reflect.DeepEqual(child.Regions(), want) {
		t.Errorf("the fork's regions: %v, want %v", child.Regions(), want)
	}
	if err := child.WriteAt(page(6), []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if !hs[6].Valid() || hs[6].Data[0] != 7 {
		t.Error("a write in the fork reached the parent's page")
	}
	if err := child.Unmap(page(1), 6*PageSize); err != nil {
		t.Fatal(err)
	}
	if want := []Region{{page(0), PageSize, ProtRW}, {page(7), PageSize, ProtRW}}; !reflect.DeepEqual(child.Regions(), want) {
		t.Errorf("the fork after an unmap across its mappings: %v, want %v", child.Regions(), want)
	}
	if !as.Mapped(page(0), 8*PageSize) || !hs[5].Valid() {
		t.Error("an unmap in the fork reached the parent")
	}
}

// TestUnmapReleasesSlabs: a piece an Unmap leaves of a mapping moves to a
// slab of its own when it maps less than a quarter of its slab, so
// mapping 4096 pages and unmapping all but one, 64 times, holds 64 small
// slabs rather than 64 of 4096 headers (8 MiB). A moved page keeps its
// bytes and generation; a handle over its old header stops validating.
func TestUnmapReleasesSlabs(t *testing.T) {
	const pages, rounds = 4096, 64
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	as := NewAddressSpace()
	moved := 0
	before := heap()
	for i := uint64(0); i < rounds; i++ {
		addr, err := as.MapAnon(pages*PageSize, ProtRW)
		if err != nil {
			t.Fatal(err)
		}
		keep := addr + i*PageSize // the surviving page is page i of the run
		if err := as.WriteAt(keep, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		h := handle(t, as, keep)
		if i > 0 {
			if err := as.Unmap(addr, i*PageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.Unmap(keep+PageSize, (pages-1-i)*PageSize); err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if err := as.ReadAt(keep, b[:]); err != nil || b[0] != byte(i+1) {
			t.Fatalf("round %d: the surviving page reads %#x (%v), want %#x", i, b[0], err, i+1)
		}
		if _, ok := as.ValidatePages([]PageGen{{PN: keep >> PageShift, Gen: h.Gen}}); !ok {
			t.Fatalf("round %d: the surviving page's generation changed", i)
		}
		if !h.Valid() {
			moved++
		}
	}
	grown := int64(heap()) - int64(before)
	if as.npages != rounds || len(as.maps) != rounds {
		t.Fatalf("%d pages in %d mappings, want %d in %d", as.npages, len(as.maps), rounds, rounds)
	}
	if moved != rounds {
		t.Errorf("a handle over the surviving page still validates in %d of %d rounds", rounds-moved, rounds)
	}
	if grown >= 1<<20 {
		t.Errorf("%d mapped pages hold %d KiB of heap, want under 1 MiB", rounds, grown>>10)
	}
}

func TestMapAnonPlacement(t *testing.T) {
	as := NewAddressSpace()
	a1, err := as.MapAnon(3*PageSize+1, ProtRW) // rounds up to 4 pages
	if err != nil {
		t.Fatal(err)
	}
	a2, err := as.MapAnon(PageSize, ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < a1+4*PageSize {
		t.Errorf("second anon mapping %#x overlaps first %#x", a2, a1)
	}
	if !as.Mapped(a1, 4*PageSize) {
		t.Error("anon mapping not fully mapped")
	}
}

func TestCloneIsDeepCopy(t *testing.T) {
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(0x1000, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	child := as.Clone()
	if err := child.WriteU64(0x1000, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := as.ReadU64(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEAD {
		t.Errorf("parent saw child's write: %#x", v)
	}
	cv, _ := child.ReadU64(0x1000)
	if cv != 0xBEEF {
		t.Errorf("child write lost: %#x", cv)
	}
}

func TestForceAccessBypassesProt(t *testing.T) {
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteForce(0x1000, []byte{1, 2, 3}); err != nil {
		t.Errorf("WriteForce on RX: %v", err)
	}
	var b [3]byte
	if err := as.ReadForce(0x1000, b[:]); err != nil {
		t.Errorf("ReadForce: %v", err)
	}
	if b != [3]byte{1, 2, 3} {
		t.Errorf("got %v", b)
	}
	if err := as.WriteForce(0x9000, []byte{1}); err == nil {
		t.Error("WriteForce to unmapped should fault")
	}
}

func TestRegions(t *testing.T) {
	as := NewAddressSpace()
	mustMap(t, as, 0x1000, 2*PageSize, ProtRX)
	mustMap(t, as, 0x3000, PageSize, ProtRW)
	mustMap(t, as, 0x8000, PageSize, ProtRW)
	regions := as.Regions()
	want := []Region{
		{0x1000, 2 * PageSize, ProtRX},
		{0x3000, PageSize, ProtRW},
		{0x8000, PageSize, ProtRW},
	}
	if len(regions) != len(want) {
		t.Fatalf("got %d regions %v, want %d", len(regions), regions, len(want))
	}
	for i := range want {
		if regions[i] != want[i] {
			t.Errorf("region %d: got %+v, want %+v", i, regions[i], want[i])
		}
	}
}

func TestProtString(t *testing.T) {
	if s := ProtRX.String(); s != "r-x" {
		t.Errorf("ProtRX = %q", s)
	}
	if s := ProtNone.String(); s != "---" {
		t.Errorf("ProtNone = %q", s)
	}
	if s := ProtRWX.String(); s != "rwx" {
		t.Errorf("ProtRWX = %q", s)
	}
}

func mustMap(t *testing.T, as *AddressSpace, addr, length uint64, prot Prot) {
	t.Helper()
	if err := as.MapFixed(addr, length, prot); err != nil {
		t.Fatal(err)
	}
}

func TestReadWriteRoundTripQuick(t *testing.T) {
	as := NewAddressSpace()
	const base, size = 0x10000, 16 * PageSize
	if err := as.MapFixed(base, size, ProtRW); err != nil {
		t.Fatal(err)
	}
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := base + uint64(off)%(size-uint64(len(data)))
		if err := as.WriteAt(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := as.ReadAt(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestU64RoundTripQuick(t *testing.T) {
	as := NewAddressSpace()
	if err := as.MapFixed(0x1000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	f := func(v uint64, off uint16) bool {
		addr := 0x1000 + uint64(off)%(PageSize-8)
		if err := as.WriteU64(addr, v); err != nil {
			return false
		}
		got, err := as.ReadU64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestMapLengthLimits: a mapping length is guest-chosen (mmap), so neither
// a length that rounds past 2^64 nor one past the MaxPages ceiling may
// succeed, allocate without bound or map nothing while claiming success.
func TestMapLengthLimits(t *testing.T) {
	as := NewAddressSpace()
	for _, length := range []uint64{^uint64(0), ^uint64(0) - PageSize + 2} {
		if addr, err := as.MapAnon(length, ProtRW); !errors.Is(err, ErrBadRange) {
			t.Errorf("MapAnon(%#x) = %#x, %v; want ErrBadRange (rounds to 0 pages)", length, addr, err)
		}
	}
	for _, length := range []uint64{1 << 40, (MaxPages + 1) * PageSize, ^uint64(0) - PageSize + 1} {
		if addr, err := as.MapAnon(length, ProtRW); !errors.Is(err, ErrNoMem) {
			t.Errorf("MapAnon(%#x) = %#x, %v; want ErrNoMem", length, addr, err)
		}
	}
	if err := as.MapFixed(0x10000, 1<<40, ProtRW); !errors.Is(err, ErrNoMem) {
		t.Errorf("MapFixed(0x10000, 1<<40) = %v; want ErrNoMem", err)
	}
	if err := as.MapFixed(^uint64(0)-PageSize+1, 2*PageSize, ProtRW); !errors.Is(err, ErrBadRange) {
		t.Errorf("MapFixed wrapping the address space = %v; want ErrBadRange", err)
	}
	if got := len(as.Regions()); got != 0 {
		t.Fatalf("%d regions mapped by rejected calls", got)
	}

	// The ceiling counts what is already mapped, and exactly MaxPages fit.
	if err := as.MapFixed(0x10000, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if _, err := as.MapAnon(MaxPages*PageSize, ProtRW); !errors.Is(err, ErrNoMem) {
		t.Errorf("MapAnon(MaxPages) with a page mapped = %v; want ErrNoMem", err)
	}
	addr, err := as.MapAnon((MaxPages-1)*PageSize, ProtRW)
	if err != nil {
		t.Fatalf("MapAnon up to the ceiling: %v", err)
	}
	if err := as.MapFixed(0x20000, PageSize, ProtRW); !errors.Is(err, ErrNoMem) {
		t.Errorf("MapFixed at the ceiling = %v; want ErrNoMem", err)
	}
	if err := as.Unmap(addr, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFixed(0x20000, PageSize, ProtRW); err != nil {
		t.Errorf("MapFixed after freeing a page: %v", err)
	}
}
