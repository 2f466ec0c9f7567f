package loader

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"lazypoline/internal/asm"
	"lazypoline/internal/mem"
)

func sampleImage(t testing.TB) *Image {
	t.Helper()
	p, err := asm.Assemble(`
	_start:
		mov64 rax, 60
		syscall
	data:
		.ascii "hello"
	`, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := FromProgram(p, "_start", Segment{
		Addr: 0x10000,
		Prot: mem.ProtRW,
		Data: []byte("heap seed"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestFromProgramAndLoad(t *testing.T) {
	img := sampleImage(t)
	if img.Entry != 0x1000 {
		t.Errorf("entry = %#x", img.Entry)
	}
	as := mem.NewAddressSpace()
	if err := img.Load(as); err != nil {
		t.Fatal(err)
	}
	// Code is executable but not writable.
	var b [2]byte
	if err := as.Fetch(0x1000, b[:]); err != nil {
		t.Errorf("fetch code: %v", err)
	}
	if err := as.WriteAt(0x1000, b[:]); err == nil {
		t.Error("code segment should be R-X")
	}
	// Extra segment is RW.
	if err := as.WriteAt(0x10000, []byte("x")); err != nil {
		t.Errorf("write heap: %v", err)
	}
	got := make([]byte, 9)
	as.ReadAt(0x10000, got)
	if string(got[1:]) != "eap seed" {
		t.Errorf("heap contents: %q", got)
	}
}

// eagerLoad is Load as it was before zero chunks were skipped: every
// segment byte written. The oracle for what Load leaves in memory.
func eagerLoad(t *testing.T, img *Image) *mem.AddressSpace {
	t.Helper()
	as := mem.NewAddressSpace()
	for _, seg := range img.Segments {
		size := (uint64(len(seg.Data)) + mem.PageSize - 1) &^ (mem.PageSize - 1)
		if err := as.MapFixed(seg.Addr, size, mem.ProtRW); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteAt(seg.Addr, seg.Data); err != nil {
			t.Fatal(err)
		}
		if err := as.Protect(seg.Addr, size, seg.Prot); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// sparseImage has a code segment, a data segment of zero pages around two
// nonzero ones (one in its last, partial page), and an all-zero segment.
func sparseImage(t *testing.T) *Image {
	img := sampleImage(t)
	data := make([]byte, 6*mem.PageSize+100)
	data[2*mem.PageSize+7] = 0x11
	data[len(data)-1] = 0x22
	img.Segments = append(img.Segments,
		Segment{Addr: 0x40000, Prot: mem.ProtRW, Data: data},
		Segment{Addr: 0x50000, Prot: mem.ProtRX, Data: make([]byte, 3*mem.PageSize)})
	return img
}

func TestLoadMatchesEagerLoad(t *testing.T) {
	img := sparseImage(t)
	got, want := mem.NewAddressSpace(), eagerLoad(t, img)
	if err := img.Load(got); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Regions(), want.Regions(); !slices.Equal(g, w) {
		t.Fatalf("regions %v, eager load maps %v", g, w)
	}
	for _, r := range want.Regions() {
		g, w := make([]byte, r.Length), make([]byte, r.Length)
		if err := got.ReadForce(r.Addr, g); err != nil {
			t.Fatal(err)
		}
		if err := want.ReadForce(r.Addr, w); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("region %#x: bytes differ from the eager load", r.Addr)
		}
	}
	var last [1]byte
	if err := got.ReadAt(0x40000+6*mem.PageSize+99, last[:]); err != nil || last[0] != 0x22 {
		t.Errorf("last byte of the data segment = %#x (%v), want 0x22", last[0], err)
	}
}

// TestLoadLeavesZeroPagesUnbacked: Load gives backing only to the pages
// it writes, so a segment's all-zero pages cost headers, not 4 KiB each.
func TestLoadLeavesZeroPagesUnbacked(t *testing.T) {
	img := &Image{Segments: []Segment{{Addr: 0x40000, Prot: mem.ProtRW, Data: make([]byte, 64*mem.PageSize)}}}
	img.Segments[0].Data[5*mem.PageSize] = 1
	var before, after runtime.MemStats
	as := mem.NewAddressSpace()
	runtime.ReadMemStats(&before)
	if err := img.Load(as); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// One page of backing plus headers and map entries (~100 B a page),
	// against 64 pages of backing (256 KiB) when every byte was written.
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*mem.PageSize+16<<10 {
		t.Errorf("loading a 64-page segment with one nonzero page allocated %d bytes, want one page of backing", got)
	}
}

func TestLoadRejectsUnaligned(t *testing.T) {
	img := &Image{Segments: []Segment{{Addr: 0x1001, Prot: mem.ProtRX, Data: []byte{1}}}}
	if err := img.Load(mem.NewAddressSpace()); err == nil {
		t.Error("unaligned segment should fail")
	}
	empty := &Image{}
	if err := empty.Load(mem.NewAddressSpace()); !errors.Is(err, ErrNoSegments) {
		t.Errorf("empty image: %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	img := sampleImage(t)
	data := img.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != img.Entry {
		t.Errorf("entry: %#x != %#x", got.Entry, img.Entry)
	}
	if len(got.Segments) != len(img.Segments) {
		t.Fatalf("segments: %d != %d", len(got.Segments), len(img.Segments))
	}
	for i := range img.Segments {
		a, b := got.Segments[i], img.Segments[i]
		if a.Addr != b.Addr || a.Prot != b.Prot || !bytes.Equal(a.Data, b.Data) {
			t.Errorf("segment %d mismatch", i)
		}
	}
	if len(got.Symbols) != len(img.Symbols) {
		t.Fatalf("symbols: %d != %d", len(got.Symbols), len(img.Symbols))
	}
	for k, v := range img.Symbols {
		if got.Symbols[k] != v {
			t.Errorf("symbol %s: %#x != %#x", k, got.Symbols[k], v)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("XELF")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := Unmarshal([]byte("SE")); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	img := sampleImage(t)
	good := img.Marshal()
	for _, cut := range []int{5, 9, 17, len(good) - 1} {
		if _, err := Unmarshal(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Wrong version.
	bad := append([]byte{}, good...)
	bad[4] = 99
	if _, err := Unmarshal(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
}

// hostileHeaders are well-formed headers whose counts promise far more
// than the input holds: one segment claiming 0xFFFFFFF0 bytes, and
// 0x7FFFFFF symbols.
func hostileHeaders() [][]byte {
	header := func(nseg, nsym uint32) []byte {
		b := append([]byte(nil), Magic[:]...)
		b = binary.LittleEndian.AppendUint32(b, Version)
		b = binary.LittleEndian.AppendUint64(b, 0x1000)
		b = binary.LittleEndian.AppendUint32(b, nseg)
		return binary.LittleEndian.AppendUint32(b, nsym)
	}
	seg := header(1, 0)
	seg = binary.LittleEndian.AppendUint64(seg, 0x1000)
	seg = append(seg, byte(mem.ProtRX))
	seg = binary.LittleEndian.AppendUint32(seg, 0xFFFFFFF0)
	return [][]byte{seg, header(0, 0x7FFFFFF)}
}

// unmarshalAlloc runs Unmarshal and reports the bytes it allocated.
func unmarshalAlloc(data []byte) (*Image, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	img, err := Unmarshal(data)
	runtime.ReadMemStats(&after)
	return img, after.TotalAlloc - before.TotalAlloc, err
}

// TestUnmarshalHostileCounts: a header's counts are checked against the
// bytes that follow before anything is allocated for them.
func TestUnmarshalHostileCounts(t *testing.T) {
	for _, data := range hostileHeaders() {
		_, alloc, err := unmarshalAlloc(data)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%d-byte image: err %v, want ErrTruncated", len(data), err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%d-byte image: Unmarshal allocated %d bytes", len(data), alloc)
		}
	}
}

// FuzzUnmarshal: on any bytes Unmarshal must not panic, must allocate
// in proportion to the input, and what it accepts must survive
// Marshal -> Unmarshal -> Marshal byte for byte.
func FuzzUnmarshal(f *testing.F) {
	f.Add(sampleImage(f).Marshal())
	for _, data := range hostileHeaders() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, alloc, err := unmarshalAlloc(data)
		if limit := 64*uint64(len(data)) + 64<<10; alloc > limit {
			t.Fatalf("%d-byte input: Unmarshal allocated %d bytes (limit %d)", len(data), alloc, limit)
		}
		if err != nil {
			return
		}
		first := img.Marshal()
		again, err := Unmarshal(first)
		if err != nil {
			t.Fatalf("Unmarshal rejects Marshal's output: %v", err)
		}
		if second := again.Marshal(); !bytes.Equal(first, second) {
			t.Fatalf("Marshal -> Unmarshal -> Marshal changed the bytes:\n%x\n%x", first, second)
		}
	})
}

func TestUnmarshalNeverPanicsQuick(t *testing.T) {
	f := func(data []byte) bool {
		_, err := Unmarshal(data)
		_ = err
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSymbolLookup(t *testing.T) {
	img := sampleImage(t)
	if v, ok := img.Symbol("data"); !ok || v == 0 {
		t.Errorf("data symbol: %#x %v", v, ok)
	}
	if _, ok := img.Symbol("nope"); ok {
		t.Error("missing symbol found")
	}
}
