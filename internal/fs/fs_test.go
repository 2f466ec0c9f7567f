package fs

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
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
	buf := make([]byte, 10)
	n, _ := r.Read(buf)
	if string(buf[:n]) != "bbb" {
		t.Errorf("read after seek: %q", buf[:n])
	}
	// Reading past EOF returns 0 bytes, no error (Linux semantics).
	n, err = r.Read(buf)
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

func TestReadDirSorted(t *testing.T) {
	f := New(nil)
	f.MkdirAll("/d", 0o755)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := f.WriteFile("/d/"+n, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f.Mkdir("/d/subdir", 0o755)
	ents, err := f.ReadDir("/d")
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
	h.Read(make([]byte, 6))
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
