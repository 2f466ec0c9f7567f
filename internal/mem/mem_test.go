package mem

import (
	"bytes"
	"errors"
	"reflect"
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
