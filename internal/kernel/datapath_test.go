package kernel

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"lazypoline/internal/fs"
	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
	"lazypoline/internal/netstack"
)

// idleTask spawns a task that is never run: a holder of an address
// space and an fd table for calling syscall implementations directly.
func idleTask(t *testing.T, k *Kernel) *Task {
	t.Helper()
	return buildTask(t, k, "_start:\n jmp _start\n")
}

// guestBuf is an address inside every test task's mapped stack.
const guestBuf = stackTop - 16*mem.PageSize

// TestReadPathChunks: readPath reads page-bounded chunks, so it answers
// exactly as a byte-at-a-time reader would — it finds a terminator that
// sits just before an unmapped page, crosses mapped page boundaries,
// refuses unterminated and over-long paths, and faults once where the
// first unreadable byte is. An unreadable byte before the terminator is
// EFAULT and no terminator in the first maxPathLen bytes ENAMETOOLONG, as
// Linux's getname, and stat and open return those errnos.
func TestReadPathChunks(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	const base = 0x4000_0000 // two mapped pages, then a hole
	if err := task.AS.MapFixed(base, 2*mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	hole := uint64(base + 2*mem.PageSize)
	put := func(addr uint64, s string) {
		t.Helper()
		if err := task.AS.WriteAt(addr, []byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	read := func(addr uint64) (string, int64) {
		var buf [pathChunk]byte
		p, errno := k.readPath(task, addr, buf[:])
		return string(p), errno
	}
	// viaSyscalls checks that stat and open of the path at addr fail
	// with errno.
	viaSyscalls := func(what string, addr uint64, errno int64) {
		t.Helper()
		if res := k.dispatch(task, SysStat, [6]uint64{addr, guestBuf}); res.ret != -errno {
			t.Errorf("stat of %s = %d, want %d", what, res.ret, -errno)
		}
		if res := k.dispatch(task, SysOpen, [6]uint64{addr, ORdonly}); res.ret != -errno {
			t.Errorf("open of %s = %d, want %d", what, res.ret, -errno)
		}
	}
	long := "/" + strings.Repeat("d/", 700) + "f" // spans several chunks

	put(hole-5, "/abc\x00")
	if got, errno := read(hole - 5); errno != 0 || got != "/abc" {
		t.Errorf("path ending at the last mapped byte: %q, %d", got, errno)
	}
	put(base+mem.PageSize-3, "/across/pages\x00")
	if got, errno := read(base + mem.PageSize - 3); errno != 0 || got != "/across/pages" {
		t.Errorf("path across a page boundary: %q, %d", got, errno)
	}
	put(base+100, long+"\x00")
	if got, errno := read(base + 100); errno != 0 || got != long {
		t.Errorf("long path: got %d bytes, %d; want %d", len(got), errno, len(long))
	}
	put(base, "\x00")
	if got, errno := read(base); errno != 0 || got != "" {
		t.Errorf("empty path: %q, %d", got, errno)
	}

	faults := task.AS.Stats().Faults
	put(hole-4, "/abc") // no terminator before the hole
	if _, errno := read(hole - 4); errno != EFAULT {
		t.Errorf("unterminated path running into an unmapped page: errno %d, want EFAULT", errno)
	}
	if _, errno := read(hole + 8); errno != EFAULT {
		t.Errorf("path in unmapped memory: errno %d, want EFAULT", errno)
	}
	if got := task.AS.Stats().Faults - faults; got != 2 {
		t.Errorf("%d faults for two failing reads, want 2", got)
	}
	viaSyscalls("an unterminated path running into an unmapped page", hole-4, EFAULT)

	// Exactly maxPathLen bytes with no terminator among them: too long,
	// even though a terminator follows.
	if err := task.AS.MapFixed(0x5000_0000, 2*mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	put(0x5000_0000, strings.Repeat("x", maxPathLen)+"\x00")
	if _, errno := read(0x5000_0000); errno != ENAMETOOLONG {
		t.Errorf("a path of maxPathLen bytes: errno %d, want ENAMETOOLONG", errno)
	}
	viaSyscalls("a path of maxPathLen bytes", 0x5000_0000, ENAMETOOLONG)
	put(0x5000_0000, strings.Repeat("x", maxPathLen-1)+"\x00")
	if got, errno := read(0x5000_0000); errno != 0 || len(got) != maxPathLen-1 {
		t.Errorf("a path of maxPathLen-1 bytes: %d bytes, %d", len(got), errno)
	}
}

// TestIoBufLazyAndReused: a task owns no staging memory until its first
// transfer, and later transfers reuse it.
func TestIoBufLazyAndReused(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	if task.io != nil {
		t.Fatal("a new task already owns staging memory")
	}
	if res := k.dispatch(task, SysGetpid, [6]uint64{}); res.ret != int64(task.Tgid) || task.io != nil {
		t.Fatal("a syscall that moves no data allocated staging memory")
	}
	task.AS.WriteAt(guestBuf, []byte("hello, console\n"))
	if res := k.dispatch(task, SysWrite, [6]uint64{1, guestBuf, 15}); res.ret != 15 {
		t.Fatalf("write = %+v", res)
	}
	if string(task.ConsoleOut) != "hello, console\n" {
		t.Fatalf("console = %q", task.ConsoleOut)
	}
	first := &task.io[:1][0]
	task.AS.WriteAt(guestBuf, []byte("again"))
	k.dispatch(task, SysWrite, [6]uint64{1, guestBuf, 5})
	if &task.io[:1][0] != first {
		t.Error("a second, smaller transfer did not reuse the staging memory")
	}
	// The console kept its own copy of the first write.
	if string(task.ConsoleOut) != "hello, console\nagain" {
		t.Errorf("console = %q: a callee retained the staging memory", task.ConsoleOut)
	}
}

// TestEpollWaitRecords: event records are staged in unzeroed memory, so
// every byte of them — padding included — must be written.
func TestEpollWaitRecords(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	copy(task.ioBuf(64), bytes.Repeat([]byte{0xff}, 64)) // dirty the staging memory
	r, w := netstack.NewPipe()
	w.Write([]byte{1})
	task.Files.Install(7, &FD{Kind: FDSocket, Sock: r})
	ep := NewEpoll()
	ep.Ctl(1, 7, EpollIn)
	ep.Ctl(1, 1, EpollOut) // the console: always ready
	epfd := task.Files.Alloc(&FD{Kind: FDEpoll, Epoll: ep})

	if res := k.dispatch(task, SysEpollWait, [6]uint64{uint64(epfd), guestBuf, 16, 0}); res.ret != 2 {
		t.Fatalf("epoll_wait = %+v, want 2", res)
	}
	got := make([]byte, 2*EpollEventSize)
	task.AS.ReadAt(guestBuf, got)
	want := []byte{
		EpollOut, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
		EpollIn, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0,
	}
	if !bytes.Equal(got, want) {
		t.Errorf("records = % x\n   want    % x", got, want)
	}
}

// TestGetdentsFitsBuffer: records are packed whole, in name order, and
// stop at the first one that does not fit; a buffer too small for the
// first record is EINVAL. Each row reads a fresh descriptor from its
// first entry.
func TestGetdentsFitsBuffer(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	k.FS.MkdirAll("/d/sub", 0o755)
	k.FS.WriteFile("/d/a", nil, 0o644)
	k.FS.WriteFile("/d/bb", nil, 0o644)
	open := func() uint64 {
		h, err := k.FS.Open("/d", fs.OpenRead, 0)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(task.Files.Alloc(&FD{Kind: FDFile, File: h}))
	}
	copy(task.ioBuf(64), bytes.Repeat([]byte{0xff}, 64))
	// Records: "a" 11 bytes, "bb" 12, "sub" 13.
	for _, tc := range []struct {
		room uint64
		want int64
	}{{100, 36}, {36, 36}, {35, 23}, {22, 11}, {10, -EINVAL}, {0, -EINVAL}} {
		if res := k.dispatch(task, SysGetdents64, [6]uint64{open(), guestBuf, tc.room}); res.ret != tc.want {
			t.Errorf("getdents64 into %d bytes = %+v, want %d", tc.room, res, tc.want)
		}
	}
	k.dispatch(task, SysGetdents64, [6]uint64{open(), guestBuf, 100})
	got := make([]byte, 36)
	task.AS.ReadAt(guestBuf, got)
	if got[8] != 8 || got[9] != 1 || got[10] != 'a' ||
		got[11+8] != 8 || got[11+9] != 2 || string(got[11+10:23]) != "bb" ||
		got[23+8] != 4 || got[23+9] != 3 || string(got[23+10:]) != "sub" {
		t.Errorf("records = % x", got)
	}
}

// TestGetdentsLoopsToEnd: a guest that calls getdents64 until it returns
// 0, with a buffer that holds two records at most, gets every entry
// exactly once, in name order, and then 0 again on a further call.
func TestGetdentsLoopsToEnd(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	k.FS.MkdirAll("/d", 0o755)
	var want []string
	for i := 0; i < 7; i++ {
		name := fmt.Sprintf("f%d", i)
		k.FS.WriteFile("/d/"+name, nil, 0o644)
		want = append(want, name)
	}
	h, err := k.FS.Open("/d", fs.OpenRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := uint64(task.Files.Alloc(&FD{Kind: FDFile, File: h}))
	var names []string
	for calls := 0; ; calls++ {
		if calls > len(want) {
			t.Fatalf("getdents64 has not returned 0 after %d calls: %q", calls, names)
		}
		n := k.dispatch(task, SysGetdents64, [6]uint64{fd, guestBuf, 25}).ret
		if n < 0 {
			t.Fatalf("getdents64 = %d", n)
		}
		if n == 0 {
			break
		}
		buf := make([]byte, n)
		task.AS.ReadAt(guestBuf, buf)
		for len(buf) > 0 {
			l := int(buf[9])
			names = append(names, string(buf[10:10+l]))
			buf = buf[10+l:]
		}
	}
	if !slices.Equal(names, want) {
		t.Errorf("entries %q, want %q", names, want)
	}
	if n := k.dispatch(task, SysGetdents64, [6]uint64{fd, guestBuf, 25}).ret; n != 0 {
		t.Errorf("getdents64 past the end = %d, want 0", n)
	}
}

// TestGetdentsAfterRename: getdents64 lists the directory its
// descriptor was opened on, not whatever has that name now: after /d is
// renamed to /e and a different /d is made, the descriptor still lists
// the original entries.
func TestGetdentsAfterRename(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	k.FS.MkdirAll("/d", 0o755)
	k.FS.WriteFile("/d/a", nil, 0o644)
	task.AS.WriteAt(guestBuf, []byte("/d\x00/e\x00"))
	fd := k.dispatch(task, SysOpen, [6]uint64{guestBuf, ORdonly}).ret
	if fd < 0 {
		t.Fatalf("open /d = %d", fd)
	}
	if res := k.dispatch(task, SysRename, [6]uint64{guestBuf, guestBuf + 3}); res.ret != 0 {
		t.Fatalf("rename /d /e = %d", res.ret)
	}
	k.FS.MkdirAll("/d", 0o755)
	k.FS.WriteFile("/d/other", nil, 0o644)
	if n := k.dispatch(task, SysGetdents64, [6]uint64{uint64(fd), guestBuf, 100}).ret; n != 11 {
		t.Fatalf("getdents64 = %d, want one 11-byte record", n)
	}
	got := make([]byte, 11)
	task.AS.ReadAt(guestBuf, got)
	if got[8] != 8 || got[9] != 1 || got[10] != 'a' {
		t.Errorf("record = % x, want the renamed directory's file a", got)
	}
}

// TestGetdentsAllocs: a guest reading a 64-entry directory two records
// per call has the listing built and sorted once, not once per call:
// opening the directory and reading it to the end allocates a fixed
// handful of objects, a second pass over the descriptor none, and an
// entry added in between is listed.
func TestGetdentsAllocs(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	k.FS.MkdirAll("/d", 0o755)
	for i := 0; i < 64; i++ {
		k.FS.WriteFile(fmt.Sprintf("/d/f%02d", i), nil, 0o644)
	}
	fd := &FD{Kind: FDFile}
	num := uint64(task.Files.Alloc(fd))
	open := func() {
		h, err := k.FS.Open("/d", fs.OpenRead, 0)
		if err != nil {
			t.Fatal(err)
		}
		fd.File = h
	}
	// pass reads from the first entry to the end, 26 bytes (two 13-byte
	// records) a call, and returns how many calls returned entries.
	pass := func() int {
		fd.File.Seek(0, 0)
		for calls := 0; ; calls++ {
			n := k.dispatch(task, SysGetdents64, [6]uint64{num, guestBuf, 26}).ret
			if n < 0 {
				t.Fatalf("getdents64 = %d", n)
			}
			if n == 0 {
				return calls
			}
		}
	}
	open()
	if calls := pass(); calls != 32 {
		t.Fatalf("%d calls listed 64 entries, want 32", calls)
	}
	if n := testing.AllocsPerRun(20, func() { open(); pass() }); n > 3 {
		t.Errorf("open and a 33-call pass: %v allocations, want <= 3", n)
	}
	if n := testing.AllocsPerRun(20, func() { pass() }); n != 0 {
		t.Errorf("a second 33-call pass: %v allocations, want 0", n)
	}
	k.FS.WriteFile("/d/g", nil, 0o644)
	if calls := pass(); calls != 33 {
		t.Errorf("after adding an entry, %d calls, want 33", calls)
	}
}

// TestPathSyscallAllocs: once warm, stat, access, chmod and utimensat of
// an existing path, and mkdir of one, allocate nothing — the path
// resolves from the guest's bytes, also when it straddles a page
// boundary. A mkdir that creates a directory allocates its name, inode
// and entry map, and a rename its new name; an open and close of a file
// allocates at most one object, the descriptor with its open file. All
// hold on a sealed filesystem (where every call that changes it fails
// with EROFS) and on one that is not.
func TestPathSyscallAllocs(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	k.FS.MkdirAll("/www/static", 0o755)
	k.FS.WriteFile("/www/static/index.html", []byte("hello"), 0o644)
	const path = "/www/./static/index.html\x00"
	straddling := uint64(guestBuf + 2*mem.PageSize - 5)
	task.AS.WriteAt(guestBuf, []byte(path))
	task.AS.WriteAt(straddling, []byte(path))
	const dir, newDir, moved = guestBuf + 1024, guestBuf + 512, guestBuf + 768
	task.AS.WriteAt(dir, []byte("/www/static\x00"))
	task.AS.WriteAt(newDir, []byte("/www/tmp\x00"))
	task.AS.WriteAt(moved, []byte("/www/static/moved.html\x00"))
	call := func(nr int64, args ...uint64) int64 {
		var a [6]uint64
		copy(a[:], args)
		return k.dispatch(task, nr, a).ret
	}
	// mutated is what a call that changes the file returns.
	mutated := func() int64 {
		if k.FS.Sealed() {
			return -EROFS
		}
		return 0
	}
	cases := []struct {
		name string
		max  float64
		run  func()
	}{
		{"stat", 0, func() {
			if n := call(SysStat, guestBuf, guestBuf+256); n != 0 {
				t.Fatalf("stat = %d", n)
			}
		}},
		{"access", 0, func() {
			if n := call(SysAccess, guestBuf, 0); n != 0 {
				t.Fatalf("access = %d", n)
			}
		}},
		{"stat across a page boundary", 0, func() {
			if n := call(SysStat, straddling, guestBuf+256); n != 0 {
				t.Fatalf("stat = %d", n)
			}
		}},
		{"chmod", 0, func() {
			if n := call(SysChmod, guestBuf, 0o600); n != mutated() {
				t.Fatalf("chmod = %d, want %d", n, mutated())
			}
		}},
		{"utimensat", 0, func() {
			if n := call(SysUtimensat, 0, guestBuf, 0, 0); n != mutated() {
				t.Fatalf("utimensat = %d, want %d", n, mutated())
			}
		}},
		{"mkdir of an existing directory", 0, func() {
			want := int64(-EEXIST)
			if k.FS.Sealed() {
				want = -EROFS
			}
			if n := call(SysMkdir, dir, 0o755); n != want {
				t.Fatalf("mkdir = %d, want %d", n, want)
			}
		}},
		{"mkdir+rmdir", 3, func() {
			if n := call(SysMkdir, newDir, 0o755); n != mutated() {
				t.Fatalf("mkdir = %d, want %d", n, mutated())
			}
			if n := call(SysRmdir, newDir); n != mutated() {
				t.Fatalf("rmdir = %d, want %d", n, mutated())
			}
		}},
		{"rename there and back", 2, func() {
			if n := call(SysRename, guestBuf, moved); n != mutated() {
				t.Fatalf("rename = %d, want %d", n, mutated())
			}
			if n := call(SysRename, moved, guestBuf); n != mutated() {
				t.Fatalf("rename back = %d, want %d", n, mutated())
			}
		}},
		{"open+close", 1, func() {
			fd := call(SysOpen, guestBuf, ORdonly)
			if fd < 0 {
				t.Fatalf("open = %d", fd)
			}
			if n := call(SysClose, uint64(fd)); n != 0 {
				t.Fatalf("close = %d", n)
			}
		}},
	}
	for _, sealed := range []bool{false, true} {
		if sealed {
			k.FS.Seal()
		}
		for _, c := range cases {
			c.run()
			if n := testing.AllocsPerRun(100, c.run); n > c.max {
				t.Errorf("%s (sealed %v): %v allocations, want <= %v", c.name, sealed, n, c.max)
			}
		}
	}
}

// TestDataSyscallsAllocateNothing: once a task's staging memory and a
// pipe's buffer exist, moving data through them allocates nothing —
// neither do getrandom, a poll of an epoll set, or an epoll_wait that
// returns events.
func TestDataSyscallsAllocateNothing(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	r, w := netstack.NewPipe()
	rfd := task.Files.Alloc(&FD{Kind: FDSocket, Sock: r, Nonblock: true})
	wfd := task.Files.Alloc(&FD{Kind: FDSocket, Sock: w, Nonblock: true})
	k.FS.WriteFile("/f", bytes.Repeat([]byte("x"), 8192), 0o644)
	h, _ := k.FS.Open("/f", fs.OpenRead, 0)
	ffd := task.Files.Alloc(&FD{Kind: FDFile, File: h})
	ep := NewEpoll()
	ep.Ctl(1, rfd, EpollIn)
	epfd := task.Files.Alloc(&FD{Kind: FDEpoll, Epoll: ep})

	call := func(nr int64, args ...uint64) int64 {
		var a [6]uint64
		copy(a[:], args)
		return k.dispatch(task, nr, a).ret
	}
	round := func() {
		if n := call(SysWrite, uint64(wfd), guestBuf, 4096); n != 4096 {
			t.Fatalf("write = %d", n)
		}
		if n := call(SysEpollWait, uint64(epfd), guestBuf+8192, 16, 0); n != 1 {
			t.Fatalf("epoll_wait = %d", n)
		}
		if n := call(SysRead, uint64(rfd), guestBuf, 4096); n != 4096 {
			t.Fatalf("read = %d", n)
		}
		if n := call(SysEpollWait, uint64(epfd), guestBuf+8192, 16, 0); n != 0 {
			t.Fatalf("epoll_wait on a drained pipe = %d", n)
		}
		if n := call(SysLseek, uint64(ffd), 0, 0); n != 0 {
			t.Fatalf("lseek = %d", n)
		}
		if n := call(SysRead, uint64(ffd), guestBuf, 1<<20); n != 8192 {
			t.Fatalf("file read = %d", n)
		}
		if n := call(SysGetrandom, guestBuf, 64); n != 64 {
			t.Fatalf("getrandom = %d", n)
		}
	}
	round() // grows the staging memory and the pipe's ring
	if len(task.io) > 8192 || cap(task.io) > 16384 {
		t.Errorf("staging memory is %d bytes after an 8 KiB file read asked for with count = 1 MiB", cap(task.io))
	}
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Errorf("%v allocations per round of read/write/epoll_wait/getrandom, want 0", n)
	}
}

// TestBlockedWakeAllocs: parking a blocking syscall, polling its wait
// while it misses, and waking and retrying it allocate nothing, for each
// kind of wait: a read of an empty socket, a write and a sendfile to a
// full one, an accept, an epoll_wait and a wait4. (The retried accept
// allocates the descriptor it returns, so for accept only the parking
// and the polls are counted.)
func TestBlockedWakeAllocs(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	r1, w1 := netstack.NewPipe() // read end in the table: read, epoll_wait
	rfd := task.Files.Alloc(&FD{Kind: FDSocket, Sock: r1})
	r2, w2 := netstack.NewPipe() // write end in the table: write, sendfile
	wfd := task.Files.Alloc(&FD{Kind: FDSocket, Sock: w2})
	k.FS.WriteFile("/f", bytes.Repeat([]byte("x"), 8192), 0o644)
	h, _ := k.FS.Open("/f", fs.OpenRead, 0)
	ffd := task.Files.Alloc(&FD{Kind: FDFile, File: h})
	l, err := k.Net.Listen(80, 8)
	if err != nil {
		t.Fatal(err)
	}
	lfd := task.Files.Alloc(&FD{Kind: FDListener, Listener: l})
	ep := NewEpoll()
	ep.Ctl(1, rfd, EpollIn)
	epfd := task.Files.Alloc(&FD{Kind: FDEpoll, Epoll: ep})
	child := &Task{ID: 77, Tgid: 77, state: TaskRunnable, parent: task, k: k}

	pad := make([]byte, netstack.RecvBufSize)
	fill := func() { w2.Write(pad[:w2.WriteSpace()]) }
	drain := func() { r2.Discard(netstack.RecvBufSize) }
	offPtr := uint64(guestBuf + 4096) // sendfile's offset: reset to 0 before each call
	var accepted int64
	cases := []struct {
		name   string
		nr     int64
		args   [6]uint64
		before func() // uncounted: set the call up to block
		ready  func() // uncounted: make its wait ready
		after  func() // uncounted: undo what the call did
		retry  bool   // count the retry too
	}{
		{"read", SysRead, [6]uint64{uint64(rfd), guestBuf, 64},
			func() {}, func() { w1.Write(pad[:8]) }, func() {}, true},
		{"write", SysWrite, [6]uint64{uint64(wfd), guestBuf, 64},
			fill, drain, drain, true},
		{"sendfile", SysSendfile, [6]uint64{uint64(wfd), uint64(ffd), offPtr, 64},
			func() { fill(); task.WriteU64(offPtr, 0) }, drain, drain, true},
		{"accept", SysAccept, [6]uint64{uint64(lfd)},
			func() {}, func() { k.Net.Connect(80) },
			func() { task.Files.Close(int(accepted)) }, false},
		{"epoll_wait", SysEpollWait, [6]uint64{uint64(epfd), guestBuf + 8192, 16, ^uint64(0)},
			func() {}, func() { w1.Write(pad[:8]) }, func() { r1.Discard(8) }, true},
		{"wait4", SysWait4, [6]uint64{^uint64(0), 0},
			func() { child.state = TaskRunnable; task.children = append(task.children[:0], child) },
			func() { child.state = TaskZombie }, func() {}, true},
	}
	// Mallocs counts every goroutine's allocations, the runtime's own
	// included. One P and no collector keep background work out of the
	// counted windows.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	mallocs := func() uint64 { runtime.ReadMemStats(&ms); return ms.Mallocs }
	for _, c := range cases {
		var counted uint64
		for i := 0; i < 20; i++ {
			c.before()
			m := mallocs()
			k.finishSyscall(task, c.nr, c.args, k.dispatch(task, c.nr, c.args))
			missed := task.state == TaskBlocked && !k.blockedReady(task) && !k.blockedReady(task)
			counted += mallocs() - m
			if !missed {
				t.Fatalf("%s: state %v after the call, or its wait was ready before anything happened", c.name, task.state)
			}
			c.ready()
			m = mallocs()
			woke := k.blockedReady(task)
			if woke && c.retry {
				k.retryBlocked(task)
			}
			counted += mallocs() - m
			if !woke {
				t.Fatalf("%s: wait not ready once it should be", c.name)
			}
			if !c.retry {
				k.retryBlocked(task)
			}
			if ret := int64(task.CPU.Regs[isa.RAX]); task.state != TaskRunnable || ret <= 0 {
				t.Fatalf("%s: retry left state %v, returned %d", c.name, task.state, ret)
			}
			accepted = int64(task.CPU.Regs[isa.RAX])
			c.after()
			if i == 0 {
				counted = 0 // the first round grows rings and staging memory
			}
		}
		if counted != 0 {
			t.Errorf("%s: %d allocations in 19 park-poll-wake rounds, want 0", c.name, counted)
		}
	}
}
