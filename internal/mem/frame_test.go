package mem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// Frame sharing (DESIGN.md §4): an image's pages are immutable frames
// that every address space maps by reference. Reads alias the frame; the
// first write to a frame-backed page gives that page — in that address
// space only — a private copy and a fresh generation.

const (
	frameCode = 0x10000 // R-X, frame-backed
	frameData = 0x11000 // RW-, frame-backed
)

// frameImage returns one code page and one data page, each a frame with
// distinct nonzero bytes, built outside the intern table so no other test
// shares them.
func frameImage() (code, data []*Frame) {
	code, data = []*Frame{{data: new([PageSize]byte)}}, []*Frame{{data: new([PageSize]byte)}}
	for i := range code[0].data {
		code[0].data[i] = byte(i*7 + 1)
		data[0].data[i] = byte(i*13 + 5)
	}
	return code, data
}

// mapImage maps the code and data frames into a fresh address space.
func mapImage(t *testing.T, code, data []*Frame) *AddressSpace {
	t.Helper()
	as := NewAddressSpace()
	if err := as.MapFrames(frameCode, code, ProtRX); err != nil {
		t.Fatal(err)
	}
	if err := as.MapFrames(frameData, data, ProtRW); err != nil {
		t.Fatal(err)
	}
	return as
}

// handle looks up the page at addr for the data fast path.
func handle(t *testing.T, as *AddressSpace, addr uint64) PageHandle {
	t.Helper()
	h, ok := as.PageForAccess(addr >> PageShift)
	if !ok {
		t.Fatalf("PageForAccess(%#x) failed", addr)
	}
	return h
}

// pageBytes reads the whole page at addr, ignoring protections.
func pageBytes(t *testing.T, as *AddressSpace, addr uint64) []byte {
	t.Helper()
	p := make([]byte, PageSize)
	if err := as.ReadForce(addr, p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFramesMappedByReference(t *testing.T) {
	code, data := frameImage()
	a, b := mapImage(t, code, data), mapImage(t, code, data)
	for _, c := range []struct {
		addr uint64
		f    *Frame
	}{{frameCode, code[0]}, {frameData, data[0]}} {
		ha, hb := handle(t, a, c.addr), handle(t, b, c.addr)
		if ha.Data != c.f.data || hb.Data != c.f.data {
			t.Errorf("page %#x: handles alias %p and %p, want the frame %p", c.addr, ha.Data, hb.Data, c.f.data)
		}
		if !ha.Shared || ha.DirectWrite {
			t.Errorf("page %#x: Shared %v DirectWrite %v, want a shared read-only handle", c.addr, ha.Shared, ha.DirectWrite)
		}
		if !bytes.Equal(pageBytes(t, a, c.addr), c.f.data[:]) {
			t.Errorf("page %#x reads differently from its frame", c.addr)
		}
	}
	for _, as := range []*AddressSpace{a, b} {
		if f, _, _ := as.ExecFrame(frameCode + 100); f != code[0] {
			t.Errorf("ExecFrame(code) = %p, want the code frame", f)
		}
		if f, _, _ := as.ExecFrame(frameData); f != nil {
			t.Error("ExecFrame returned a frame for a non-executable page")
		}
	}
}

// TestFrameWritesStayPrivate: a locked write to a code page and a direct
// store to a data page in one address space leave the other's bytes, its
// TLB handles and its decoded-block generations untouched, while the
// writer's own handles and generations go stale.
func TestFrameWritesStayPrivate(t *testing.T) {
	code, data := frameImage()
	want := pageBytes(t, mapImage(t, code, data), frameCode)
	wantData := bytes.Clone(data[0].data[:])
	writer, other := mapImage(t, code, data), mapImage(t, code, data)

	otherCode, otherData := handle(t, other, frameCode), handle(t, other, frameData)
	_, otherGen, _ := other.ExecFrame(frameCode)
	writerCode, writerData := handle(t, writer, frameCode), handle(t, writer, frameData)
	_, writerGen, _ := writer.ExecFrame(frameCode)
	mut := writer.CodeMutations()

	// A code patch (the rewriters' and ptrace's locked path).
	if err := writer.WriteForce(frameCode+0x40, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	// A guest store to the data page: the shared handle sends it through
	// the locked path once, after which the page is private and direct.
	if err := writer.WriteAt(frameData+8, []byte{0x11}); err != nil {
		t.Fatal(err)
	}
	h := handle(t, writer, frameData)
	if !h.DirectWrite || h.Shared {
		t.Fatalf("privatized data page: DirectWrite %v Shared %v, want a direct private handle", h.DirectWrite, h.Shared)
	}
	h.Data[9] = 0x22

	if writerCode.Valid() || writerData.Valid() {
		t.Error("the writer's pre-write handles still validate")
	}
	if _, ok := writer.ValidatePages([]PageGen{writerGen}); ok {
		t.Error("the writer's code generation still validates after the patch")
	}
	if writer.CodeMutations() == mut {
		t.Error("patching a privatized code page did not advance CodeMutations")
	}
	if f, _, _ := writer.ExecFrame(frameCode); f != nil {
		t.Error("the written code page is still frame-backed")
	}
	if got := pageBytes(t, writer, frameData); got[8] != 0x11 || got[9] != 0x22 {
		t.Errorf("writer's data bytes %#x %#x, want 0x11 0x22", got[8], got[9])
	}

	if !otherCode.Valid() || !otherData.Valid() {
		t.Error("the other space's handles went stale")
	}
	if _, ok := other.ValidatePages([]PageGen{otherGen}); !ok {
		t.Error("the other space's code generation went stale")
	}
	if f, _, _ := other.ExecFrame(frameCode); f != code[0] {
		t.Error("the other space's code page lost its frame")
	}
	if !bytes.Equal(pageBytes(t, other, frameCode), want) || !bytes.Equal(otherCode.Data[:], want) {
		t.Error("the other space's code bytes changed")
	}
	if !bytes.Equal(pageBytes(t, other, frameData), wantData) || !bytes.Equal(data[0].data[:], wantData) {
		t.Error("the data frame changed under a store to a privatized page")
	}
}

// TestCloneAliasesFrames: fork copies private pages but aliases
// frame-backed ones; a write in either copy privatizes only its own page.
func TestCloneAliasesFrames(t *testing.T) {
	code, data := frameImage()
	parent := mapImage(t, code, data)
	const anon = 0x20000
	if err := parent.MapFixed(anon, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := parent.WriteAt(anon, []byte{1}); err != nil {
		t.Fatal(err)
	}
	child := parent.Clone()
	for _, addr := range []uint64{frameCode, frameData} {
		if hp, hc := handle(t, parent, addr), handle(t, child, addr); hp.Data != hc.Data || !hc.Shared {
			t.Errorf("page %#x: clone holds %p (shared %v), parent %p; want the same frame", addr, hc.Data, hc.Shared, hp.Data)
		}
	}
	if handle(t, parent, anon).Data == handle(t, child, anon).Data {
		t.Error("clone aliases a private page")
	}
	if err := child.WriteAt(frameData, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if pageBytes(t, parent, frameData)[0] == 0xEE || data[0].data[0] == 0xEE {
		t.Error("a write in the clone reached the parent's frame")
	}
	if !handle(t, parent, frameData).Shared {
		t.Error("a write in the clone privatized the parent's page")
	}
}

// TestMapFramesChecks: MapFrames consults AllocGate with the page count
// MapFixed would, fails like MapFixed on an overlap, and leaves a nil
// frame's page untouched (reading as zeros).
func TestMapFramesChecks(t *testing.T) {
	code, _ := frameImage()
	frames := append(code, nil)
	as := NewAddressSpace()
	var asked []uint64
	as.AllocGate = func(pages uint64) bool { asked = append(asked, pages); return len(asked) > 1 }
	if err := as.MapFrames(frameCode, frames, ProtRX); !errors.Is(err, ErrNoMem) {
		t.Fatalf("denied MapFrames: err %v, want ErrNoMem", err)
	}
	if err := as.MapFrames(frameCode, frames, ProtRX); err != nil {
		t.Fatal(err)
	}
	if len(asked) != 2 || asked[0] != 2 || asked[1] != 2 {
		t.Errorf("AllocGate asked for %v pages, want [2 2]", asked)
	}
	if err := as.MapFrames(frameCode+PageSize, code, ProtRX); !errors.Is(err, ErrOverlap) {
		t.Errorf("overlapping MapFrames: err %v, want ErrOverlap", err)
	}
	if !bytes.Equal(pageBytes(t, as, frameCode+PageSize), make([]byte, PageSize)) {
		t.Error("the nil frame's page does not read as zeros")
	}
	if f, _, _ := as.ExecFrame(frameCode + PageSize); f != nil {
		t.Error("ExecFrame returned a frame for an untouched page")
	}
}

func TestFramesOfInternsAndSkipsZeros(t *testing.T) {
	isolateInterned(t)
	img := make([]byte, 3*PageSize+10)
	img[5] = 0x5A            // page 0
	img[3*PageSize+9] = 0x5B // page 3, partial
	a, b := FramesOf(img, 5*PageSize), FramesOf(bytes.Clone(img), 5*PageSize)
	if len(a) != 5 {
		t.Fatalf("%d frames, want 5", len(a))
	}
	for i, f := range a {
		if (f != nil) != (i == 0 || i == 3) {
			t.Errorf("frame %d present %v", i, f != nil)
		}
		if f != b[i] {
			t.Errorf("frame %d: equal bytes built two frames", i)
		}
	}
	if a[3].data[9] != 0x5B || a[3].data[10] != 0 {
		t.Error("a partial page's frame does not hold its bytes followed by zeros")
	}
}

// TestFramePublishFirstWins (for -race): of concurrent publishers of one
// key, the first wins — every reader after its own Publish sees one
// value, whichever publisher it was.
func TestFramePublishFirstWins(t *testing.T) {
	f := new(Frame)
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Publish(42, &i)
			got[i] = f.Decoded(42)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] || got[i] == nil {
			t.Fatalf("reader %d saw %v, reader 0 %v", i, got[i], got[0])
		}
	}
}

// isolateInterned gives the test an empty intern table and restores the
// process's table when it ends, so nothing the test interns, and no
// table it fills, is seen by another test.
func isolateInterned(tb testing.TB) {
	interned.Lock()
	saved := interned.frames
	interned.frames = nil
	interned.Unlock()
	tb.Cleanup(func() {
		interned.Lock()
		interned.frames = saved
		interned.Unlock()
	})
}

// writtenCode maps one RW page at frameCode holding code and returns the
// space with a data-path handle taken over the private page.
func writtenCode(t *testing.T, code []byte) (*AddressSpace, PageHandle) {
	t.Helper()
	as := NewAddressSpace()
	if err := as.MapFixed(frameCode, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteAt(frameCode, code); err != nil {
		t.Fatal(err)
	}
	return as, handle(t, as, frameCode)
}

// TestSealedFrameClonedAndPrivatized: a Protect that makes a written page
// R-X re-backs it with a frame holding its bytes, with Protect's one
// generation and code mutation and no more. A handle taken before the
// seal no longer validates; a fork aliases the frame instead of copying
// it; the next write privatizes the page into an array other than the
// frame's, in the writer's space alone.
func TestSealedFrameClonedAndPrivatized(t *testing.T) {
	isolateInterned(t)
	code, _ := frameImage()
	as, before := writtenCode(t, code[0].data[:])
	st := as.Stats()
	if err := as.Protect(frameCode, PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	f, _, _ := as.ExecFrame(frameCode)
	if f == nil {
		t.Fatal("the page made R-X is not frame-backed")
	}
	if before.Valid() {
		t.Error("a handle over the private array still validates after the seal")
	}
	if f.data != before.Data {
		t.Error("the new frame copied the private array instead of taking it over")
	}
	if got := as.Stats(); got.Generations != st.Generations+1 || got.CodeMutations != st.CodeMutations+1 {
		t.Errorf("Protect with a seal: generations %d→%d, code mutations %d→%d; want one of each",
			st.Generations, got.Generations, st.CodeMutations, got.CodeMutations)
	}
	if !bytes.Equal(pageBytes(t, as, frameCode), code[0].data[:]) || !bytes.Equal(f.data[:], code[0].data[:]) {
		t.Error("the sealed page does not read the bytes written")
	}
	if h := handle(t, as, frameCode); h.Data != f.data || !h.Shared {
		t.Errorf("handle over the sealed page: %p shared %v, want the frame %p", h.Data, h.Shared, f.data)
	}

	child := as.Clone()
	if h := handle(t, child, frameCode); h.Data != f.data || !h.Shared {
		t.Errorf("the fork holds %p (shared %v), want the frame %p", h.Data, h.Shared, f.data)
	}
	if err := as.WriteForce(frameCode+8, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if g, _, _ := as.ExecFrame(frameCode); g != nil {
		t.Error("the written page is still frame-backed")
	}
	if h := handle(t, as, frameCode); h.Data == f.data || h.Data[8] != 0xCC {
		t.Errorf("the write privatized into %p, want an array other than the frame's (%p)", h.Data, f.data)
	}
	if g, _, _ := child.ExecFrame(frameCode); g != f || !bytes.Equal(pageBytes(t, child, frameCode), code[0].data[:]) {
		t.Error("a write in the parent reached the fork's page")
	}
	if *f.data != *code[0].data {
		t.Error("a write after the seal changed the frame")
	}

	// A Protect that leaves a sealed page anything but executable and not
	// writable gives it a private array again, with the permissions the
	// private page had; an untouched page is never sealed.
	want := pageBytes(t, as, frameCode)
	for _, prot := range []Prot{ProtRW, ProtRWX, ProtRead, ProtNone} {
		if err := as.Protect(frameCode, PageSize, ProtRX); err != nil {
			t.Fatal(err)
		}
		if g, _, _ := as.ExecFrame(frameCode); g == nil {
			t.Fatal("Protect R-X did not seal the private page")
		}
		if err := as.Protect(frameCode, PageSize, prot); err != nil {
			t.Fatal(err)
		}
		if h := handle(t, as, frameCode); h.Shared || h.DirectWrite != (prot == ProtRW) || !bytes.Equal(h.Data[:], want) {
			t.Errorf("Protect %v of a sealed page: shared %v direct %v, want a private page with its bytes", prot, h.Shared, h.DirectWrite)
		}
	}
	if err := as.MapFixed(frameData, PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(frameData, PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	if g, _, _ := as.ExecFrame(frameData); g != nil {
		t.Error("Protect sealed an untouched page")
	}
}

// TestSealFullFrameTableEmpties: a seal that finds the intern table full
// and its bytes absent empties the table, which then holds only the new
// frame, and seals the page with the generations and code mutations any
// seal has. A frame interned before still backs its page with its bytes,
// and equal bytes sealed after the flush share one new frame.
func TestSealFullFrameTableEmpties(t *testing.T) {
	isolateInterned(t)
	code, data := frameImage()
	sealed, _ := writtenCode(t, code[0].data[:])
	if err := sealed.Protect(frameCode, PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	old, _, _ := sealed.ExecFrame(frameCode)
	if old == nil {
		t.Fatal("the page made R-X is not frame-backed")
	}
	for i := uint64(1); len(interned.frames) < maxInterned; i++ {
		pg := new([PageSize]byte) // intern takes the array over: one per call
		putLeU64(pg[:], i)
		if f := intern(pg); f.data != pg {
			t.Fatalf("intern %d found a frame for new bytes", i)
		}
	}

	flushed, _ := writtenCode(t, data[0].data[:])
	if err := flushed.Protect(frameCode, PageSize, ProtRX); err != nil {
		t.Fatal(err)
	}
	f, _, _ := flushed.ExecFrame(frameCode)
	if f == nil {
		t.Fatal("a full table left the page private")
	}
	if len(interned.frames) != 1 || lookup(f.data) != f {
		t.Errorf("after the flush the table holds %d frames, want only the new one", len(interned.frames))
	}
	if !bytes.Equal(pageBytes(t, flushed, frameCode), data[0].data[:]) {
		t.Error("the page sealed into the emptied table reads different bytes")
	}
	if flushed.Stats() != sealed.Stats() || flushed.CodeMutations() != sealed.CodeMutations() {
		t.Errorf("counters %+v, a seal into a table with room %+v", flushed.Stats(), sealed.Stats())
	}
	if g, _, _ := sealed.ExecFrame(frameCode); g != old || *old.data != *code[0].data ||
		!bytes.Equal(pageBytes(t, sealed, frameCode), code[0].data[:]) {
		t.Error("the flush changed the frame or the bytes of a page sealed before it")
	}

	var again [2]*Frame
	for i := range again {
		as, _ := writtenCode(t, code[0].data[:])
		if err := as.Protect(frameCode, PageSize, ProtRX); err != nil {
			t.Fatal(err)
		}
		again[i], _, _ = as.ExecFrame(frameCode)
	}
	if again[0] == nil || again[0] != again[1] || again[0] == old {
		t.Errorf("two seals after the flush: frames %p and %p, want one new frame (not %p)", again[0], again[1], old)
	}
}

// TestFramesOfAndSealShareFrame: every frame is keyed by its whole page,
// so a short chunk FramesOf interns and a sealed page holding the same
// bytes followed by zeros are one frame, whichever comes first.
func TestFramesOfAndSealShareFrame(t *testing.T) {
	isolateInterned(t)
	b := make([]byte, 2*PageSize)
	for i := range b {
		b[i] = byte(i%251 + 1)
	}
	seal := func(chunk []byte) *Frame {
		t.Helper()
		as, _ := writtenCode(t, chunk)
		if err := as.Protect(frameCode, PageSize, ProtRX); err != nil {
			t.Fatal(err)
		}
		f, _, _ := as.ExecFrame(frameCode)
		return f
	}
	if f := FramesOf(b[:100], PageSize)[0]; f == nil || seal(b[:100]) != f {
		t.Error("a sealed page and FramesOf's short chunk with the same bytes are different frames")
	}
	if f := seal(b[PageSize : PageSize+100]); f == nil || FramesOf(b[PageSize:PageSize+100], PageSize)[0] != f {
		t.Error("FramesOf's short chunk and an earlier sealed page with the same bytes are different frames")
	}
}

// TestSealedFrameRewriteAllocs: once the table holds both versions of a
// page, rewriting the sealed page — mprotect RW, write, mprotect RX, as
// lazypoline patches a site — allocates nothing: the page's private
// array is the one the last seal dropped, and the seal finds its frame
// by content.
func TestSealedFrameRewriteAllocs(t *testing.T) {
	isolateInterned(t)
	code, _ := frameImage()
	as, _ := writtenCode(t, code[0].data[:])
	var patch [2]byte
	rewrite := func() {
		patch[0] ^= 1
		if err := as.Protect(frameCode, PageSize, ProtRW); err != nil {
			t.Fatal(err)
		}
		if err := as.WriteAt(frameCode+8, patch[:]); err != nil {
			t.Fatal(err)
		}
		if err := as.Protect(frameCode, PageSize, ProtRX); err != nil {
			t.Fatal(err)
		}
	}
	rewrite()
	rewrite()
	if f, _, _ := as.ExecFrame(frameCode); f == nil {
		t.Fatal("the rewritten page is not sealed")
	}
	if n := testing.AllocsPerRun(100, rewrite); n != 0 {
		t.Errorf("a rewrite of a sealed page: %v allocations, want 0", n)
	}
}
