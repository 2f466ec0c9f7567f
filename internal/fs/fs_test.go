package fs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"lazypoline/internal/mem"
)

func TestWriteReadFile(t *testing.T) {
	f := New(nil)
	data := []byte("static content for the web server")
	if err := f.WriteFile("/www/index.html", data, 0o644); err == nil {
		t.Fatal("write without parent dir should fail")
	}
	if err := f.MkdirAll("/www", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/www/index.html", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile("/www/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
}

func TestOpenFlags(t *testing.T) {
	f := New(nil)
	if _, err := f.Open("/a", OpenRead, 0); !errors.Is(err, ErrNotExist) {
		t.Errorf("open missing: %v", err)
	}
	h, err := f.Open("/a", OpenWrite|OpenCreate, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open("/a", OpenWrite|OpenCreate|OpenExcl, 0o644); !errors.Is(err, ErrExist) {
		t.Errorf("O_EXCL on existing: %v", err)
	}
	// O_TRUNC empties the file.
	if _, err := f.Open("/a", OpenWrite|OpenTrunc, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.ReadFile("/a"); len(got) != 0 {
		t.Errorf("after trunc: %q", got)
	}
	// Writing through a read-only handle fails.
	ro, err := f.Open("/a", OpenRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Write([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write to O_RDONLY: %v", err)
	}
}

func TestAppendAndSeek(t *testing.T) {
	f := New(nil)
	h, err := f.Open("/log", OpenWrite|OpenCreate, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	h.Write([]byte("aaa"))
	ap, err := f.Open("/log", OpenWrite|OpenAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	ap.Write([]byte("bbb"))
	got, _ := f.ReadFile("/log")
	if string(got) != "aaabbb" {
		t.Errorf("append produced %q", got)
	}
	r, err := f.Open("/log", OpenRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	if off, err := r.Seek(-3, 2); err != nil || off != 3 {
		t.Fatalf("seek end-3: off=%d err=%v", off, err)
	}
	sink := &sliceSink{mem: make([]byte, 10)}
	n, _ := r.ReadTo(sink, 0, 10)
	if string(sink.mem[:n]) != "bbb" {
		t.Errorf("read after seek: %q", sink.mem[:n])
	}
	// Reading past EOF returns 0 bytes, no error (Linux semantics).
	n, err = r.ReadTo(sink, 0, 10)
	if n != 0 || err != nil {
		t.Errorf("read at EOF: n=%d err=%v", n, err)
	}
}

func TestUnlinkRmdirRename(t *testing.T) {
	f := New(nil)
	if err := f.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile("/d/file", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink("/d/sub"); !errors.Is(err, ErrIsDir) {
		t.Errorf("unlink dir: %v", err)
	}
	if err := f.Rmdir("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("rmdir non-empty: %v", err)
	}
	if err := f.Rename("/d/file", "/d/sub/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stat("/d/file"); !errors.Is(err, ErrNotExist) {
		t.Errorf("old path survives rename: %v", err)
	}
	got, err := f.ReadFile("/d/sub/moved")
	if err != nil || string(got) != "x" {
		t.Errorf("moved file: %q %v", got, err)
	}
	if err := f.Unlink("/d/sub/moved"); err != nil {
		t.Fatal(err)
	}
	if err := f.Rmdir("/d/sub"); err != nil {
		t.Fatal(err)
	}
}

func TestChmodAndStat(t *testing.T) {
	f := New(nil)
	if err := f.WriteFile("/f", []byte("abc"), 0o600); err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode&ModePermMask != 0o600 || st.Size != 3 {
		t.Errorf("stat: %+v", st)
	}
	if err := f.Chmod("/f", 0o755); err != nil {
		t.Fatal(err)
	}
	st, _ = f.Stat("/f")
	if st.Mode&ModePermMask != 0o755 {
		t.Errorf("chmod: mode %o", st.Mode)
	}
	if st.Mode&ModeDir != 0 {
		t.Error("file claims to be a directory")
	}
}

func TestUtimensUsesCycleClock(t *testing.T) {
	var now uint64
	f := New(func() uint64 { return now })
	now = 100
	if err := f.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat("/f")
	if st.Mtime != 100 {
		t.Errorf("mtime = %d, want 100", st.Mtime)
	}
	if err := f.Utimens("/f", 555, 777); err != nil {
		t.Fatal(err)
	}
	st, _ = f.Stat("/f")
	if st.Mtime != 777 {
		t.Errorf("mtime = %d, want 777", st.Mtime)
	}
}

// readDir lists the directory at path through a handle, as getdents64
// does.
func readDir(f *FS, path string) ([]DirEnt, error) {
	h, err := f.Open(path, OpenRead, 0)
	if err != nil {
		return nil, err
	}
	return h.ReadDir()
}

func TestReadDirSorted(t *testing.T) {
	f := New(nil)
	f.MkdirAll("/d", 0o755)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := f.WriteFile("/d/"+n, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f.Mkdir("/d/subdir", 0o755)
	ents, err := readDir(f, "/d")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "subdir", "zeta"}
	if len(ents) != len(want) {
		t.Fatalf("got %d entries", len(ents))
	}
	for i, w := range want {
		if ents[i].Name != w {
			t.Errorf("ent %d = %q, want %q", i, ents[i].Name, w)
		}
	}
	if !ents[2].IsDir {
		t.Error("subdir not marked as dir")
	}
}

func TestPathNormalisation(t *testing.T) {
	f := New(nil)
	f.MkdirAll("/a/b", 0o755)
	f.WriteFile("/a/b/f", []byte("v"), 0o644)
	for _, p := range []string{"/a/b/f", "//a//b//f", "/a/./b/./f", "/a/b/../b/f", "/../a/b/f"} {
		if _, err := f.Stat(p); err != nil {
			t.Errorf("Stat(%q): %v", p, err)
		}
	}
	if _, err := f.Stat("relative/path"); !errors.Is(err, ErrBadPath) {
		t.Errorf("relative path: %v", err)
	}
	longName := "/" + string(bytes.Repeat([]byte("x"), MaxNameLen+1))
	if _, err := f.Stat(longName); !errors.Is(err, ErrNameTooLong) {
		t.Errorf("long name: %v", err)
	}
}

func TestWriteAtSparseGrowth(t *testing.T) {
	f := New(nil)
	h, err := f.Open("/s", OpenRead|OpenWrite|OpenCreate, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("end"), 100); err != nil {
		t.Fatal(err)
	}
	if h.Size() != 103 {
		t.Errorf("size = %d, want 103", h.Size())
	}
	buf := make([]byte, 4)
	n, err := h.ReadAt(buf, 99)
	if err != nil || n != 4 {
		t.Fatalf("readat: %d %v", n, err)
	}
	if buf[0] != 0 || string(buf[1:]) != "end" {
		t.Errorf("got % x", buf)
	}
}

func TestReadWriteQuick(t *testing.T) {
	f := New(nil)
	h, err := f.Open("/q", OpenRead|OpenWrite|OpenCreate, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if _, err := h.WriteAt(data, uint64(off)); err != nil {
			return false
		}
		got := make([]byte, len(data))
		n, err := h.ReadAt(got, uint64(off))
		return err == nil && n == len(data) && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPathWalkEdges pins what the in-place path walk answers for the
// shapes a component splitter gets wrong: empty components, trailing
// slashes, lexical "..", over-long names anywhere in the path.
func TestPathWalkEdges(t *testing.T) {
	f := New(nil)
	f.MkdirAll("/a/b", 0o755)
	f.WriteFile("/a/b/f", []byte("v"), 0o644)
	long := string(bytes.Repeat([]byte("x"), MaxNameLen+1))
	deep := "/a" + string(bytes.Repeat([]byte("/."), 40)) + "/b/f" // more components than fit inline
	for _, tc := range []struct {
		path string
		want error
	}{
		{"/", nil},
		{"//", nil},
		{"/a/b/f", nil},
		{"/a/b/f/", nil},    // trailing slash is an empty component
		{"/a/b/f//", nil},   //
		{"/a/b/", nil},      //
		{"/a/b/..", nil},    // /a
		{"/a/b/../", nil},   //
		{"/..", nil},        // ".." at the root stays at the root
		{"/../..", nil},     //
		{"/a/../../a", nil}, //
		// ".." is lexical: what it cancels is never looked up.
		{"/nonexistent/../a", nil},
		{"/a/b/f/../f", nil},
		{deep, nil},
		{"", ErrBadPath},
		{"a/b", ErrBadPath},
		{"/a/x", ErrNotExist},
		{"/a/x/", ErrNotExist},
		{"/a/b/f/x", ErrNotDir},
		// An over-long name fails the whole path, wherever it is, before
		// any lookup — even one ".." would have cancelled.
		{"/" + long, ErrNameTooLong},
		{"/nonexistent/" + long, ErrNameTooLong},
		{"/a/" + long + "/../b", ErrNameTooLong},
		{"/a/" + long[:MaxNameLen], ErrNotExist},
	} {
		if _, err := f.Stat(tc.path); !errors.Is(err, tc.want) {
			t.Errorf("Stat(%.40q) = %v, want %v", tc.path, err, tc.want)
		}
	}
	// The parent walk: same normalisation, last component kept.
	for _, tc := range []struct {
		path string
		want error
	}{
		{"/a/b/new/", nil},
		{"/a/./b/../b/new2", nil},
		{"/", ErrBadPath},
		{"/a/..", ErrBadPath}, // normalises to the root: no last component
		{"/a/x/new", ErrNotExist},
		{"/a/b/f/new", ErrNotDir},
	} {
		if err := f.Mkdir(tc.path, 0o755); !errors.Is(err, tc.want) {
			t.Errorf("Mkdir(%q) = %v, want %v", tc.path, err, tc.want)
		}
	}
}

// TestLookupAllocatesNothing: resolving a path — the open and stat of
// every served request — allocates no component list.
func TestLookupAllocatesNothing(t *testing.T) {
	f := New(nil)
	f.MkdirAll("/www/htdocs", 0o755)
	f.WriteFile("/www/htdocs/static", []byte("v"), 0o644)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := f.Stat("/www/./htdocs//static"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Stat allocates %v objects per call, want 0", n)
	}
	f.Seal()
	// Open returns a new *File: that handle is the one allocation.
	if n := testing.AllocsPerRun(100, func() {
		if _, err := f.Open("/www/htdocs/static", OpenRead, 0); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Open allocates %v objects per call, want 1 (the handle)", n)
	}
}

// TestSealedMutationsFail: every mutation of a sealed filesystem fails
// with ErrSealed — for paths that exist and paths that do not alike,
// since the check precedes path resolution — and leaves the tree as it
// was. Opening an existing file for writing is still allowed.
func TestSealedMutationsFail(t *testing.T) {
	f := New(nil)
	f.MkdirAll("/d/empty", 0o755)
	f.WriteFile("/d/f", []byte("v"), 0o644)
	w, err := f.Open("/d/f", OpenWrite, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Seal()
	if !f.Sealed() {
		t.Fatal("not sealed after Seal")
	}
	if _, err := f.Open("/d/f", OpenRead|OpenWrite, 0); err != nil {
		t.Errorf("open existing for writing on a sealed tree: %v", err)
	}
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Mkdir", func() error { return f.Mkdir("/d/new", 0o755) }},
		{"MkdirAll", func() error { return f.MkdirAll("/x/y", 0o755) }},
		{"WriteFile", func() error { return f.WriteFile("/d/f", []byte("w"), 0o644) }},
		{"Unlink", func() error { return f.Unlink("/d/f") }},
		{"UnlinkMissing", func() error { return f.Unlink("/d/missing") }},
		{"Rmdir", func() error { return f.Rmdir("/d/empty") }},
		{"Rename", func() error { return f.Rename("/d/f", "/d/g") }},
		{"Chmod", func() error { return f.Chmod("/d/f", 0o600) }},
		{"Utimens", func() error { return f.Utimens("/d/f", 1, 1) }},
		{"OpenCreate", func() error { _, err := f.Open("/d/new", OpenWrite|OpenCreate, 0o644); return err }},
		{"OpenTrunc", func() error { _, err := f.Open("/d/f", OpenWrite|OpenTrunc, 0); return err }},
		{"WriteAt", func() error { _, err := w.WriteAt([]byte("w"), 0); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.op(); !errors.Is(err, ErrSealed) {
				t.Errorf("%s on a sealed tree = %v, want ErrSealed", tc.name, err)
			}
		})
	}
	if got, err := f.ReadFile("/d/f"); err != nil || string(got) != "v" {
		t.Errorf("/d/f = %q, %v after refused mutations, want \"v\"", got, err)
	}
	ents, err := readDir(f, "/d")
	if err != nil || len(ents) != 2 {
		t.Errorf("/d has %d entries (%v), want 2 (empty, f)", len(ents), err)
	}
	if st, _ := f.Stat("/d/f"); st.Mode&ModePermMask != 0o644 {
		t.Errorf("/d/f mode %o after refused chmod, want 644", st.Mode&ModePermMask)
	}
}

// TestSealedReadSkipsAtime: a read of an unsealed file stamps its atime
// from the clock; once sealed, reads leave atime alone.
func TestSealedReadSkipsAtime(t *testing.T) {
	var now uint64 = 10
	f := New(func() uint64 { return now })
	f.WriteFile("/f", []byte("abc"), 0o644)
	h, err := f.Open("/f", OpenRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 3)
	now = 20
	h.ReadAt(p, 0)
	if h.inode.Atime != 20 {
		t.Fatalf("unsealed read: atime %d, want 20", h.inode.Atime)
	}
	f.Seal()
	now = 30
	if n, err := h.ReadAt(p, 0); n != 3 || err != nil || string(p) != "abc" {
		t.Fatalf("sealed read = %d %q %v, want 3 \"abc\"", n, p, err)
	}
	if h.inode.Atime != 20 {
		t.Errorf("sealed read: atime %d, want it left at 20", h.inode.Atime)
	}
}

// TestAppendIsNotQuadratic: writing 1 MiB in 4 KiB chunks may not copy
// the whole file on every extending write.
func TestAppendIsNotQuadratic(t *testing.T) {
	f := New(nil)
	h, err := f.Open("/log", OpenRead|OpenWrite|OpenCreate, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 256)
	const total = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < total; off += len(chunk) {
		if _, err := h.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("appending 1 MiB in 4 KiB chunks allocated %d bytes, want < 4 MiB", got)
	}
	// Capacity held in reserve is invisible: size, contents and stat are
	// those of the bytes written.
	if h.Size() != total {
		t.Errorf("Size = %d, want %d", h.Size(), total)
	}
	data, err := f.ReadFile("/log")
	if err != nil || len(data) != total || !bytes.Equal(data[total-len(chunk):], chunk) {
		t.Errorf("ReadFile: %d bytes, %v", len(data), err)
	}
	if st, _ := f.Stat("/log"); st.Size != total {
		t.Errorf("Stat.Size = %d, want %d", st.Size, total)
	}
	// Truncate-and-rewrite starts over; a sparse write inside reserved
	// capacity still reads zeros in the hole.
	h2, err := f.Open("/log", OpenRead|OpenWrite|OpenTrunc, 0)
	if err != nil || h2.Size() != 0 {
		t.Fatalf("truncate: size %d, %v", h2.Size(), err)
	}
	h2.WriteAt([]byte("ab"), 0)
	h2.WriteAt([]byte("cd"), 2) // grows capacity past 4
	h2.WriteAt([]byte("z"), 7)  // hole at 4..6, inside capacity
	got := make([]byte, 8)
	if n, _ := h2.ReadAt(got, 0); n != 8 || !bytes.Equal(got, []byte("abcd\x00\x00\x00z")) {
		t.Errorf("sparse write inside capacity read back %q", got[:n])
	}
}

// TestAvail: the sizing call answers what ReadAt would, without reading.
func TestAvail(t *testing.T) {
	f := New(nil)
	f.Mkdir("/d", 0o755)
	f.WriteFile("/f", []byte("0123456789"), 0o644)
	h, _ := f.Open("/f", OpenRead, 0)
	for _, tc := range []struct{ off, max, want uint64 }{
		{0, 4, 4}, {0, 10, 10}, {0, 1 << 20, 10}, {7, 10, 3}, {10, 10, 0}, {99, 10, 0}, {3, 0, 0},
	} {
		if got, err := h.Avail(tc.off, tc.max); got != tc.want || err != nil {
			t.Errorf("Avail(%d, %d) = %d, %v; want %d", tc.off, tc.max, got, err, tc.want)
		}
	}
	if h.Offset() != 0 {
		t.Errorf("Avail moved the offset to %d", h.Offset())
	}
	h.ReadTo(&sliceSink{mem: make([]byte, 6)}, 0, 6)
	if h.Offset() != 6 {
		t.Errorf("Offset = %d after reading 6 bytes", h.Offset())
	}
	w, _ := f.Open("/f", OpenWrite, 0)
	if _, err := w.Avail(0, 4); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Avail on a write-only handle: %v", err)
	}
	d, _ := f.Open("/d", OpenRead, 0)
	if _, err := d.Avail(0, 4); !errors.Is(err, ErrIsDir) {
		t.Errorf("Avail on a directory: %v", err)
	}
}

// sliceSink is a Sink over a byte slice at base; writes past its end
// fill what fits and fail.
type sliceSink struct {
	base  uint64
	mem   []byte
	calls int
}

var errSinkFault = errors.New("sink fault")

func (s *sliceSink) WriteAt(addr uint64, p []byte) error {
	s.calls++
	n := copy(s.mem[addr-s.base:], p)
	if n < len(p) {
		return errSinkFault
	}
	return nil
}

// TestReadTo: ReadTo writes the file's bytes from the offset into the
// sink, advancing the offset past all it had even when the sink fails
// part-way; file errors come before the sink is touched, and EOF touches
// nothing.
func TestReadTo(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		f := New(nil)
		data := []byte("0123456789abcdef")
		f.WriteFile("/f", data, 0o644)
		f.Mkdir("/d", 0o755)
		if sealed {
			f.Seal()
		}
		h, _ := f.Open("/f", OpenRead, 0)
		sink := &sliceSink{base: 100, mem: make([]byte, 32)}
		if n, err := h.ReadTo(sink, 100, 10); n != 10 || err != nil || string(sink.mem[:10]) != "0123456789" {
			t.Fatalf("sealed=%v: ReadTo = %d, %v; sink %q", sealed, n, err, sink.mem[:10])
		}
		// Six bytes left; the sink takes four of them and faults.
		if n, err := h.ReadTo(sink, 128, 100); n != 6 || !errors.Is(err, errSinkFault) || string(sink.mem[28:]) != "abcd" {
			t.Fatalf("sealed=%v: faulting ReadTo = %d, %v; sink %q", sealed, n, err, sink.mem[28:])
		}
		if off := h.Offset(); off != 16 {
			t.Errorf("sealed=%v: offset %d after a faulting ReadTo, want 16", sealed, off)
		}
		calls := sink.calls
		if n, err := h.ReadTo(sink, 100, 10); n != 0 || err != nil || sink.calls != calls {
			t.Errorf("sealed=%v: ReadTo at EOF = %d, %v, %d sink calls", sealed, n, err, sink.calls-calls)
		}
		w, _ := f.Open("/f", OpenWrite, 0)
		d, _ := f.Open("/d", OpenRead, 0)
		for _, c := range []struct {
			h    *File
			want error
		}{{w, ErrReadOnly}, {d, ErrIsDir}} {
			if n, err := c.h.ReadTo(sink, 100, 10); n != 0 || !errors.Is(err, c.want) || sink.calls != calls {
				t.Errorf("sealed=%v: ReadTo = %d, %v, %d sink calls; want 0, %v, none", sealed, n, err, sink.calls-calls, c.want)
			}
		}
	}
}

// TestSealedExtent: only a sealed file lends its bytes — aliased and
// clipped at EOF — and an unreadable handle lends nothing.
func TestSealedExtent(t *testing.T) {
	f := New(nil)
	f.WriteFile("/f", []byte("0123456789"), 0o644)
	f.Mkdir("/d", 0o755)
	h, _ := f.Open("/f", OpenRead, 0)
	if _, ok := h.SealedExtent(0, 4); ok {
		t.Fatal("an unsealed file lent its bytes")
	}
	f.Seal()
	a, ok := h.SealedExtent(2, 4)
	if !ok || string(a) != "2345" || &a[0] != &h.inode.Data[2] {
		t.Fatalf("SealedExtent(2, 4) = %q, %v; or it does not alias the inode's data", a, ok)
	}
	if b, ok := h.SealedExtent(6, 100); !ok || string(b) != "6789" {
		t.Fatalf("SealedExtent(6, 100) = %q, %v", b, ok)
	}
	if p, ok := h.SealedExtent(10, 4); !ok || len(p) != 0 {
		t.Errorf("SealedExtent at EOF = %q, %v", p, ok)
	}
	w, _ := f.Open("/f", OpenWrite, 0)
	d, _ := f.Open("/d", OpenRead, 0)
	for _, c := range []*File{w, d} {
		if _, ok := c.SealedExtent(0, 4); ok {
			t.Error("a write-only handle or a directory lent bytes")
		}
	}
}

// frameSink is a FrameSink over a sliceSink that records the frames it
// is offered and takes them when accept is set, copying their bytes in
// as the address space would read them.
type frameSink struct {
	sliceSink
	accept bool
	offers [][]mem.Frame
}

func (s *frameSink) AliasFrames(addr uint64, frames []mem.Frame) bool {
	s.offers = append(s.offers, frames)
	if !s.accept {
		return false
	}
	for i := range frames {
		p := mem.NewAddressSpace() // read the frame's bytes the way a guest would
		if err := p.MapFixed(0, mem.PageSize, mem.ProtRW); err != nil || !p.Alias(0, frames[i:i+1]) {
			panic("alias into a fresh page failed")
		}
		if err := p.ReadAt(0, s.mem[addr-s.base+uint64(i)*mem.PageSize:][:mem.PageSize]); err != nil {
			panic(err)
		}
	}
	return true
}

// TestReadToLendsSealedPages: a sealed file offers a FrameSink its whole
// pages in a read that starts page-aligned in the file and in the sink,
// and copies only the tail and what the sink refuses; the bytes, count
// and offset are the copy path's in every case. The frames are made once
// per file.
func TestReadToLendsSealedPages(t *testing.T) {
	data := make([]byte, 3*mem.PageSize+100)
	for i := range data {
		data[i] = byte(i*7 + i>>12)
	}
	for _, c := range []struct {
		name          string
		sealed        bool
		accept        bool
		addr, off     uint64
		n             int
		offeredFrames int // -1: no offer
	}{
		{"sealed, aligned", true, true, 0x1000, 0, 10000, 2},
		{"sealed, tail", true, true, 0x1000, 2 * mem.PageSize, 8192, 1},
		{"sealed, refused", true, false, 0x1000, 0, 10000, 2},
		{"sealed, unaligned buffer", true, true, 0x1008, 0, 10000, -1},
		{"sealed, unaligned offset", true, true, 0x1000, 8, 10000, -1},
		{"sealed, under a page", true, true, 0x1000, 0, 4095, -1},
		{"unsealed", false, true, 0x1000, 0, 10000, -1},
	} {
		f := New(nil)
		f.WriteFile("/f", data, 0o644)
		if c.sealed {
			f.Seal()
		}
		h, _ := f.Open("/f", OpenRead, 0)
		h.Seek(int64(c.off), 0)
		sink := &frameSink{sliceSink: sliceSink{base: 0x1000, mem: make([]byte, 4*mem.PageSize)}, accept: c.accept}
		n, err := h.ReadTo(sink, c.addr, c.n)
		want := data[c.off:min(uint64(len(data)), c.off+uint64(c.n))]
		if n != len(want) || err != nil || h.Offset() != c.off+uint64(n) {
			t.Errorf("%s: ReadTo = %d, %v, offset %d; want %d, nil, %d", c.name, n, err, h.Offset(), len(want), c.off+uint64(len(want)))
		}
		if got := sink.mem[c.addr-0x1000:][:n]; !bytes.Equal(got, want) {
			t.Errorf("%s: the sink holds different bytes than the file", c.name)
		}
		switch {
		case c.offeredFrames < 0 && len(sink.offers) != 0:
			t.Errorf("%s: offered frames", c.name)
		case c.offeredFrames >= 0 && (len(sink.offers) != 1 || len(sink.offers[0]) != c.offeredFrames):
			t.Errorf("%s: offers %v, want one of %d frames", c.name, len(sink.offers), c.offeredFrames)
		}
		if c.accept && c.offeredFrames > 0 && sink.calls != 1 {
			t.Errorf("%s: %d copies after the lent pages, want the tail's one", c.name, sink.calls)
		}
	}

	f := New(nil)
	f.WriteFile("/f", data, 0o644)
	f.Seal()
	var offers []*mem.Frame
	for range 2 {
		h, _ := f.Open("/f", OpenRead, 0)
		sink := &frameSink{sliceSink: sliceSink{base: 0x1000, mem: make([]byte, 4*mem.PageSize)}, accept: true}
		h.ReadTo(sink, 0x1000, len(data))
		offers = append(offers, &sink.offers[0][0])
	}
	if offers[0] != offers[1] || len(f.frames) != 1 {
		t.Errorf("two reads of one file made %d frame sets", len(f.frames))
	}
}

// TestWriteAtMaxFileSize: a file grows to MaxFileSize and no further. A
// write at or past it, at any offset, fails with ErrTooBig (never a host
// allocation sized by the offset); one that crosses it writes what fits;
// an empty write changes nothing wherever it is.
func TestWriteAtMaxFileSize(t *testing.T) {
	f := New(nil)
	h, err := f.Open("/big", OpenRead|OpenWrite|OpenCreate, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{1 << 62, ^uint64(0), ^uint64(0) - 1, MaxFileSize} {
		if n, err := h.WriteAt([]byte{1}, off); n != 0 || !errors.Is(err, ErrTooBig) {
			t.Errorf("WriteAt at %#x = %d, %v; want 0, ErrTooBig", off, n, err)
		}
		if n, err := h.WriteAt(nil, off); n != 0 || err != nil {
			t.Errorf("empty WriteAt at %#x = %d, %v; want 0, nil", off, n, err)
		}
	}
	if h.Size() != 0 {
		t.Fatalf("size %d after refused writes", h.Size())
	}
	if n, err := h.WriteAt([]byte("0123456789"), MaxFileSize-3); n != 3 || err != nil || h.Size() != MaxFileSize {
		t.Errorf("WriteAt across the limit = %d, %v, size %d; want 3, nil, %d", n, err, h.Size(), MaxFileSize)
	}
	h.Seek(0, 2)
	if n, err := h.Write([]byte{1}); n != 0 || !errors.Is(err, ErrTooBig) || h.Offset() != MaxFileSize {
		t.Errorf("Write at the limit = %d, %v, offset %d", n, err, h.Offset())
	}
}
