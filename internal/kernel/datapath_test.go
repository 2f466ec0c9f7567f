package kernel

import (
	"bytes"
	"strings"
	"testing"

	"lazypoline/internal/fs"
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
// first unreadable byte is.
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
	long := "/" + strings.Repeat("d/", 700) + "f" // spans several chunks

	put(hole-5, "/abc\x00")
	if got, ok := k.readPath(task, hole-5); !ok || got != "/abc" {
		t.Errorf("path ending at the last mapped byte: %q, %v", got, ok)
	}
	put(base+mem.PageSize-3, "/across/pages\x00")
	if got, ok := k.readPath(task, base+mem.PageSize-3); !ok || got != "/across/pages" {
		t.Errorf("path across a page boundary: %q, %v", got, ok)
	}
	put(base+100, long+"\x00")
	if got, ok := k.readPath(task, base+100); !ok || got != long {
		t.Errorf("long path: got %d bytes, %v; want %d", len(got), ok, len(long))
	}
	put(base, "\x00")
	if got, ok := k.readPath(task, base); !ok || got != "" {
		t.Errorf("empty path: %q, %v", got, ok)
	}

	faults := task.AS.Stats().Faults
	put(hole-4, "/abc") // no terminator before the hole
	if _, ok := k.readPath(task, hole-4); ok {
		t.Error("unterminated path running into an unmapped page was accepted")
	}
	if _, ok := k.readPath(task, hole+8); ok {
		t.Error("path in unmapped memory was accepted")
	}
	if got := task.AS.Stats().Faults - faults; got != 2 {
		t.Errorf("%d faults for two failing reads, want 2", got)
	}

	// Exactly maxPathLen bytes with no terminator among them: too long,
	// even though a terminator follows.
	if err := task.AS.MapFixed(0x5000_0000, 2*mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	put(0x5000_0000, strings.Repeat("x", maxPathLen)+"\x00")
	if _, ok := k.readPath(task, 0x5000_0000); ok {
		t.Error("a path of maxPathLen bytes was accepted")
	}
	put(0x5000_0000, strings.Repeat("x", maxPathLen-1)+"\x00")
	if got, ok := k.readPath(task, 0x5000_0000); !ok || len(got) != maxPathLen-1 {
		t.Errorf("a path of maxPathLen-1 bytes: %d bytes, %v", len(got), ok)
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
// stop at the first one that does not fit.
func TestGetdentsFitsBuffer(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	k.FS.MkdirAll("/d/sub", 0o755)
	k.FS.WriteFile("/d/a", nil, 0o644)
	k.FS.WriteFile("/d/bb", nil, 0o644)
	h, err := k.FS.Open("/d", fs.OpenRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := task.Files.Alloc(&FD{Kind: FDFile, File: h, Path: "/d"})
	copy(task.ioBuf(64), bytes.Repeat([]byte{0xff}, 64))
	// Records: "a" 11 bytes, "bb" 12, "sub" 13.
	for _, tc := range []struct {
		room uint64
		want int64
	}{{100, 36}, {36, 36}, {35, 23}, {22, 11}, {10, 0}, {0, 0}} {
		if res := k.dispatch(task, SysGetdents64, [6]uint64{uint64(fd), guestBuf, tc.room}); res.ret != tc.want {
			t.Errorf("getdents64 into %d bytes = %+v, want %d", tc.room, res, tc.want)
		}
	}
	k.dispatch(task, SysGetdents64, [6]uint64{uint64(fd), guestBuf, 100})
	got := make([]byte, 36)
	task.AS.ReadAt(guestBuf, got)
	if got[8] != 8 || got[9] != 1 || got[10] != 'a' ||
		got[11+8] != 8 || got[11+9] != 2 || string(got[11+10:23]) != "bb" ||
		got[23+8] != 4 || got[23+9] != 3 || string(got[23+10:]) != "sub" {
		t.Errorf("records = % x", got)
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
	ffd := task.Files.Alloc(&FD{Kind: FDFile, File: h, Path: "/f"})
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
