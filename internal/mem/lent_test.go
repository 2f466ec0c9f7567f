package mem

import (
	"bytes"
	"testing"
	"unsafe"
)

// Lent frames (DESIGN.md §4): a sealed file's whole pages, which read(2)
// maps into a buffer (Alias) and write(2) hands on by reference
// (LentRun). An alias must be indistinguishable from a checked write of
// the frames' bytes, except that the bytes are not copied.

const (
	lentBuf   = 0x40000 // four RW pages
	lentPages = 4
)

// lentFile returns a "file" of five whole pages and a 100-byte tail,
// with distinct bytes, and its lent frames.
func lentFile() ([]byte, []Frame) {
	b := make([]byte, 5*PageSize+100)
	for i := range b {
		b[i] = byte(i*31 + i>>12 + 7)
	}
	return b, Lend(b)
}

// lentSpace maps the four-page buffer RW in a fresh address space.
func lentSpace(t *testing.T) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if err := as.MapFixed(lentBuf, lentPages*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestLendFramesAliasWholePages(t *testing.T) {
	b, frames := lentFile()
	if len(frames) != 5 {
		t.Fatalf("Lend of 5 pages and a tail made %d frames, want 5", len(frames))
	}
	for i := range frames {
		if frames[i].data != (*[PageSize]byte)(b[i*PageSize:]) || frames[i].lentOff() != i*PageSize {
			t.Errorf("frame %d does not alias page %d of the slice", i, i)
		}
	}
	if Lend(b[:PageSize-1]) != nil {
		t.Error("Lend of less than a page made frames")
	}
}

// TestFrameStaysInSizeClass: a frame grew by one word, the lent slice,
// and no more (every image page and sealed page holds one).
func TestFrameStaysInSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Frame{}); s > 32 {
		t.Errorf("Frame is %d bytes, want at most 32", s)
	}
}

// TestLentFrameAliasReadsLikeWrite: an address space that aliased two
// lent frames reads, counts and validates exactly as one that WriteAt
// the same bytes: the same bytes, one generation per page, no code
// mutation, no fault.
func TestLentFrameAliasReadsLikeWrite(t *testing.T) {
	b, frames := lentFile()
	aliased, written := lentSpace(t), lentSpace(t)
	gen0, mut0 := aliased.Stats().Generations, aliased.CodeMutations()
	if !aliased.Alias(lentBuf+PageSize, frames[2:4]) {
		t.Fatal("Alias over mapped RW pages refused")
	}
	if err := written.WriteAt(lentBuf+PageSize, b[2*PageSize:4*PageSize]); err != nil {
		t.Fatal(err)
	}
	if a, w := aliased.Stats(), written.Stats(); a != w {
		t.Errorf("after the alias: %+v; after the write: %+v", a, w)
	}
	if got := aliased.Stats().Generations - gen0; got != 2 {
		t.Errorf("the alias issued %d generations for two pages, want 2", got)
	}
	if aliased.CodeMutations() != mut0 {
		t.Error("the alias of data pages counted a code mutation")
	}
	if !bytes.Equal(pageRange(t, aliased), pageRange(t, written)) {
		t.Error("the aliased buffer reads differently from the written one")
	}
	p := aliased.LentRun(lentBuf+PageSize+10, 2*PageSize-20)
	if p == nil || &p[0] != &b[2*PageSize+10] || len(p) != 2*PageSize-20 {
		t.Fatalf("LentRun over the aliased pages = %d bytes, want the file's own bytes", len(p))
	}
	if written.LentRun(lentBuf+PageSize, PageSize) != nil {
		t.Error("LentRun lends a private page")
	}
	if aliased.LentRun(lentBuf, 2*PageSize) != nil {
		t.Error("LentRun lends a run that starts on a page with no frame")
	}
}

// pageRange reads the whole four-page buffer.
func pageRange(t *testing.T, as *AddressSpace) []byte {
	t.Helper()
	p := make([]byte, lentPages*PageSize)
	if err := as.ReadForce(lentBuf, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestLentFrameAliasInvalidatesHandles: a D-TLB handle taken before the
// alias stops validating, and the new one is a shared, read-only view of
// the file's bytes, as after a write to a frame-backed page.
func TestLentFrameAliasInvalidatesHandles(t *testing.T) {
	_, frames := lentFile()
	as := lentSpace(t)
	before := handle(t, as, lentBuf)
	if !before.DirectWrite {
		t.Fatal("a fresh RW page has no direct handle")
	}
	if !as.Alias(lentBuf, frames[:1]) {
		t.Fatal("Alias refused")
	}
	if before.Valid() {
		t.Error("a handle taken before the alias still validates")
	}
	h := handle(t, as, lentBuf)
	if h.Data != frames[0].data || !h.Shared || h.DirectWrite {
		t.Errorf("handle after the alias: shared %v direct %v, aliasing the frame %v", h.Shared, h.DirectWrite, h.Data == frames[0].data)
	}
	// The array the alias dropped is the next privatization's.
	if as.spare != before.Data {
		t.Error("the alias did not keep the page's dropped array as the spare")
	}
}

// TestLentFrameAliasRefused: an alias over a page that is executable,
// read-only, unmapped or pkey-denied, or at an unaligned address, changes
// nothing and counts nothing; the caller copies instead.
func TestLentFrameAliasRefused(t *testing.T) {
	_, frames := lentFile()
	for _, c := range []struct {
		name  string
		addr  uint64
		setup func(*AddressSpace) error
	}{
		{"executable", lentBuf, func(as *AddressSpace) error { return as.Protect(lentBuf+PageSize, PageSize, ProtRWX) }},
		{"read-only", lentBuf, func(as *AddressSpace) error { return as.Protect(lentBuf+PageSize, PageSize, ProtRead) }},
		{"unmapped", lentBuf, func(as *AddressSpace) error { return as.Unmap(lentBuf+PageSize, PageSize) }},
		{"pkey-denied", lentBuf, func(as *AddressSpace) error {
			as.SetActivePKRU(PkeyWriteDisableBit(1))
			return as.SetPkey(lentBuf+PageSize, PageSize, 1)
		}},
		{"unaligned", lentBuf + 8, func(*AddressSpace) error { return nil }},
	} {
		as := lentSpace(t)
		if err := as.WriteAt(lentBuf, []byte("private")); err != nil {
			t.Fatal(err)
		}
		if err := c.setup(as); err != nil {
			t.Fatal(err)
		}
		st, before := as.Stats(), pageBytes(t, as, lentBuf)
		if as.Alias(c.addr, frames[:2]) {
			t.Errorf("%s: Alias accepted", c.name)
		}
		if as.Stats() != st || !bytes.Equal(pageBytes(t, as, lentBuf), before) {
			t.Errorf("%s: a refused alias changed the address space", c.name)
		}
		if as.LentRun(lentBuf, PageSize) != nil {
			t.Errorf("%s: a refused alias left a lent page", c.name)
		}
	}
}

// TestLentFrameStorePrivatizes: a store to an aliased page gives that
// page a private copy, in that address space alone, and leaves the
// file's bytes as they were; the other aliased page still lends.
func TestLentFrameStorePrivatizes(t *testing.T) {
	b, frames := lentFile()
	want := bytes.Clone(b)
	as := lentSpace(t)
	if !as.Alias(lentBuf, frames[:2]) {
		t.Fatal("Alias refused")
	}
	if err := as.WriteAt(lentBuf+PageSize+5, []byte{0xEE, 0xEF}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("a store to an aliased page changed the file's bytes")
	}
	got := pageRange(t, as)
	if got[PageSize+5] != 0xEE || got[PageSize+6] != 0xEF || !bytes.Equal(got[:PageSize+5], b[:PageSize+5]) {
		t.Error("the privatized page does not hold the file's bytes and the store")
	}
	if h := handle(t, as, lentBuf+PageSize); h.Shared || !h.DirectWrite {
		t.Error("the stored-to page is still shared")
	}
	if as.LentRun(lentBuf, 2*PageSize) != nil {
		t.Error("LentRun lends across a privatized page")
	}
	if p := as.LentRun(lentBuf, PageSize); p == nil || &p[0] != &b[0] {
		t.Error("the page not stored to no longer lends")
	}
}

// TestLentFrameForkAliases: a fork aliases a lent page, as it does every
// frame-backed page; a store in the child privatizes the child's page
// only, and the parent's still lends.
func TestLentFrameForkAliases(t *testing.T) {
	b, frames := lentFile()
	parent := lentSpace(t)
	if !parent.Alias(lentBuf, frames[1:3]) {
		t.Fatal("Alias refused")
	}
	child := parent.Clone()
	if h := handle(t, child, lentBuf); h.Data != frames[1].data || !h.Shared {
		t.Error("the child copied an aliased page")
	}
	if p := child.LentRun(lentBuf, 2*PageSize); p == nil || &p[0] != &b[PageSize] {
		t.Error("the child's aliased pages do not lend")
	}
	if err := child.WriteAt(lentBuf, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if p := parent.LentRun(lentBuf, 2*PageSize); p == nil || !bytes.Equal(p, b[PageSize:3*PageSize]) {
		t.Error("a store in the child reached the parent's lent pages")
	}
}
