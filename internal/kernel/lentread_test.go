package kernel

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"lazypoline/internal/fs"
	"lazypoline/internal/mem"
	"lazypoline/internal/netstack"
)

// The zero-copy read path (DESIGN.md §7): read(2) of whole, page-aligned
// pages of a sealed file backs the buffer with the file's frames, and a
// write(2) of that buffer to a socket queues the frames' bytes by
// reference. Each case runs on two kernels that differ only in whether
// the filesystem is sealed: the unsealed one always copies, so it is the
// oracle for what every read returns, where it leaves the offset, the
// bytes in guest memory, the faults counted and the cycles charged.

// lentBase is the start of the four pages each case reads into.
const lentBase = 0x5000_0000

// lentRig is one kernel of a pair: a task with the file open for reading
// and, for the write cases, a connected socket.
type lentRig struct {
	sysRig
	fd     int
	sock   int
	client *netstack.Endpoint // reads what the task writes to sock
}

func newLentRig(t *testing.T, cfg Config, content []byte, sealed bool) *lentRig {
	t.Helper()
	k := New(cfg)
	k.Net.SetFaults(nil)
	if err := k.FS.WriteFile("/f", content, 0o644); err != nil {
		t.Fatal(err)
	}
	if sealed {
		k.FS.Seal()
	}
	r := &lentRig{sysRig: sysRig{k: k, task: idleTask(t, k)}}
	if err := r.task.AS.MapFixed(lentBase, 4*mem.PageSize, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	h, err := k.FS.Open("/f", fs.OpenRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.fd = r.task.Files.Alloc(&FD{Kind: FDFile, File: h})
	l, err := k.Net.Listen(8086, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.client, err = k.Net.Connect(8086); err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	r.sock = r.task.Files.Alloc(&FD{Kind: FDSocket, Sock: server})
	return r
}

// state is what a read may leave behind: the buffer's bytes (unreadable
// pages as zeros), the file offset, faults and cycles.
type lentState struct {
	buf    []byte
	off    int64
	faults uint64
	cycles uint64
}

func (r *lentRig) state() lentState {
	s := lentState{buf: make([]byte, 4*mem.PageSize), faults: r.task.AS.Stats().Faults, cycles: r.task.CPU.Cycles}
	for pg := 0; pg < 4; pg++ {
		r.task.AS.ReadForce(lentBase+uint64(pg)*mem.PageSize, s.buf[pg*mem.PageSize:][:mem.PageSize])
	}
	s.off = r.call(SysLseek, uint64(r.fd), 0, 1)
	return s
}

func TestLentReadMatchesCopyPath(t *testing.T) {
	content := make([]byte, 6*mem.PageSize+300)
	for i := range content {
		content[i] = byte(i*13 + i>>12 + 1)
	}
	size := uint64(len(content))
	type read struct{ off, addr, count uint64 }
	for _, c := range []struct {
		name  string
		cfg   Config
		setup func(*Task) error
		reads []read
		lent  int // bytes at lentBase that must be lent after the sealed reads; -1: either
	}{
		{name: "aligned", reads: []read{{0, lentBase, 8192}}, lent: 8192},
		{name: "aligned, whole buffer", reads: []read{{4096, lentBase, 4 * mem.PageSize}}, lent: 4 * mem.PageSize},
		{name: "past the buffer", reads: []read{{0, lentBase, 1 << 20}}},
		{name: "unaligned buffer", reads: []read{{0, lentBase + 100, 8192}}},
		{name: "unaligned offset", reads: []read{{100, lentBase, 8192}}},
		{name: "short tail", reads: []read{{5 * mem.PageSize, lentBase, 8192}}, lent: mem.PageSize},
		{name: "EOF", reads: []read{{size, lentBase, 8192}, {size + 5000, lentBase, 8192}}},
		{name: "read-only second page", setup: func(t *Task) error {
			return t.AS.Protect(lentBase+mem.PageSize, mem.PageSize, mem.ProtRead)
		}, reads: []read{{0, lentBase, 8192}}},
		{name: "executable page", setup: func(t *Task) error {
			return t.AS.Protect(lentBase, mem.PageSize, mem.ProtRWX)
		}, reads: []read{{0, lentBase, 8192}}},
		{name: "unmapped second page", setup: func(t *Task) error {
			return t.AS.Unmap(lentBase+mem.PageSize, mem.PageSize)
		}, reads: []read{{0, lentBase, 8192}}},
		{name: "pkey-denied page", setup: func(t *Task) error {
			t.CPU.PKRU = mem.PkeyWriteDisableBit(1)
			t.AS.SetActivePKRU(t.CPU.PKRU)
			return t.AS.SetPkey(lentBase+mem.PageSize, mem.PageSize, 1)
		}, reads: []read{{0, lentBase, 8192}}},
		{name: "chaos short reads", cfg: Config{ChaosSeed: 3, ChaosRate: 0.5}, reads: []read{
			{0, lentBase, 8192}, {0, lentBase, 8192}, {0, lentBase, 16384}, {4096, lentBase, 8192}, {0, lentBase, 12288},
		}, lent: -1},
		{name: "read over a lent buffer", reads: []read{{0, lentBase, 16384}, {8192, lentBase, 8192}, {100, lentBase + 4096, 4096}}, lent: mem.PageSize},
	} {
		sealed, copied := newLentRig(t, c.cfg, content, true), newLentRig(t, c.cfg, content, false)
		if c.setup != nil {
			if err := c.setup(sealed.task); err != nil {
				t.Fatal(err)
			}
			if err := c.setup(copied.task); err != nil {
				t.Fatal(err)
			}
		}
		for i, rd := range c.reads {
			sealed.call(SysLseek, uint64(sealed.fd), rd.off, 0)
			copied.call(SysLseek, uint64(copied.fd), rd.off, 0)
			got := sealed.call(SysRead, uint64(sealed.fd), rd.addr, rd.count)
			want := copied.call(SysRead, uint64(copied.fd), rd.addr, rd.count)
			if got != want {
				t.Errorf("%s: read %d = %d, copy path %d", c.name, i, got, want)
			}
			gs, ws := sealed.state(), copied.state()
			if !bytes.Equal(gs.buf, ws.buf) {
				t.Errorf("%s: read %d left different bytes than the copy path", c.name, i)
			}
			if gs.off != ws.off || gs.faults != ws.faults || gs.cycles != ws.cycles {
				t.Errorf("%s: read %d: offset/faults/cycles %d/%d/%d, copy path %d/%d/%d",
					c.name, i, gs.off, gs.faults, gs.cycles, ws.off, ws.faults, ws.cycles)
			}
		}
		if lent := sealed.task.AS.LentRun(lentBase, max(c.lent, 1)) != nil; c.lent >= 0 && lent != (c.lent > 0) {
			t.Errorf("%s: %d bytes at the buffer lent: %v", c.name, c.lent, lent)
		}
		if copied.task.AS.LentRun(lentBase, 1) != nil {
			t.Errorf("%s: an unsealed file lent its pages", c.name)
		}
	}
}

// TestLentWriteSurvivesScribble: read(2) aliases two pages of the sealed
// file, write(2) queues them by reference, and the guest then overwrites
// its buffer. The peer still reads the file's bytes, as it does on the
// copy path, and the guest sees its own stores.
func TestLentWriteSurvivesScribble(t *testing.T) {
	content := make([]byte, 4*mem.PageSize)
	for i := range content {
		content[i] = byte(i*5 + 3)
	}
	junk := bytes.Repeat([]byte{0xEE}, 8192)
	for _, sealed := range []bool{true, false} {
		r := newLentRig(t, Config{}, content, sealed)
		if n := r.call(SysRead, uint64(r.fd), lentBase, 8192); n != 8192 {
			t.Fatalf("sealed=%v: read = %d", sealed, n)
		}
		if p, ok := (*guestSource)(r.task).SealedExtent(lentBase+10, 8000); ok != sealed || ok && !bytes.Equal(p, content[10:8010]) {
			t.Errorf("sealed=%v: the guest buffer lends: %v", sealed, ok)
		}
		if n := r.call(SysWrite, uint64(r.sock), lentBase, 8192); n != 8192 {
			t.Fatalf("sealed=%v: write = %d", sealed, n)
		}
		if err := r.task.WriteAt(lentBase, junk); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8192)
		if n, err := r.client.Read(got); n != 8192 || err != nil || !bytes.Equal(got, content[:8192]) {
			t.Errorf("sealed=%v: the peer read %d bytes, %v; the file's bytes: %v", sealed, n, err, bytes.Equal(got, content[:8192]))
		}
		mine := make([]byte, 8192)
		if err := r.task.ReadAt(lentBase, mine); err != nil || !bytes.Equal(mine, junk) {
			t.Errorf("sealed=%v: the guest does not read back its own stores", sealed)
		}
		if data, _ := r.k.FS.ReadFile("/f"); !bytes.Equal(data, content) {
			t.Errorf("sealed=%v: the scribble reached the file", sealed)
		}
	}
}

// TestLentChunkAllocs: once warm, lighttpd's chunk loop — an 8 KiB read
// of a sealed file and a write of it to a socket — allocates nothing,
// and the peer's receive buffer queues the pages by reference.
func TestLentChunkAllocs(t *testing.T) {
	content := bytes.Repeat([]byte("0123456789abcdef"), 64*1024/16)
	r := newLentRig(t, Config{}, content, true)
	fd, _ := r.task.Files.Get(r.sock)
	server := fd.Sock
	round := func() {
		r.call(SysLseek, uint64(r.fd), 0, 0)
		for range len(content) / 8192 {
			if n := r.call(SysRead, uint64(r.fd), lentBase, 8192); n != 8192 {
				t.Fatalf("read = %d", n)
			}
			if n := r.call(SysWrite, uint64(r.sock), lentBase, 8192); n != 8192 {
				t.Fatalf("write = %d", n)
			}
			if n, err := r.client.Discard(8192); n != 8192 || err != nil {
				t.Fatalf("discard = %d, %v", n, err)
			}
		}
	}
	round()
	if server.Buffered() != 0 {
		t.Fatal("the rig's server socket holds bytes")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Errorf("%v allocations per 64 KiB of read/write chunks, want 0", n)
	}
}
