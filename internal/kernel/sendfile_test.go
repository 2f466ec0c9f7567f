package kernel

import (
	"bytes"
	"errors"
	"testing"

	"lazypoline/internal/fs"
	"lazypoline/internal/isa"
	"lazypoline/internal/netstack"
)

// TestSendfileGuest: a guest serves a file over a socket with sendfile;
// the host-side client receives the exact contents.
func TestSendfileGuest(t *testing.T) {
	k := New(Config{})
	content := make([]byte, 10_000)
	for i := range content {
		content[i] = byte(i % 251)
	}
	if err := k.FS.WriteFile("/blob", content, 0o644); err != nil {
		t.Fatal(err)
	}
	task := buildTask(t, k, `
	.equ SYS_sendfile 40
	.equ SYS_socket 41
	.equ SYS_accept 43
	.equ SYS_bind 49
	.equ SYS_listen 50
	_start:
		mov64 rax, SYS_socket
		mov64 rdi, 2
		mov64 rsi, 1
		syscall
		mov rbx, rax
		mov64 rax, SYS_bind
		mov rdi, rbx
		lea rsi, sa
		mov64 rdx, 8
		syscall
		mov64 rax, SYS_listen
		mov rdi, rbx
		mov64 rsi, 8
		syscall
		mov64 rax, SYS_accept
		mov rdi, rbx
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov r13, rax            ; connfd
		mov64 rax, SYS_open
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov r12, rax            ; filefd
		mov64 r14, 0            ; total
	sendloop:
		mov64 rax, SYS_sendfile
		mov rdi, r13
		mov rsi, r12
		mov64 rdx, 0
		mov64 r10, 4096
		syscall
		cmpi rax, 0
		jle done
		add r14, rax
		jmp sendloop
	done:
		mov64 rax, SYS_close
		mov rdi, r13
		syscall
		mov rdi, r14
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/blob"
		.byte 0
	.align 8
	sa:
		.byte 2, 0, 0x1f, 0x94
		.byte 0, 0, 0, 0
	`)

	var ep *netstack.Endpoint
	for i := 0; i < 100 && ep == nil; i++ {
		k.RunSlice(100_000)
		if e, err := k.Net.Connect(8084); err == nil {
			ep = e
		}
	}
	if ep == nil {
		t.Fatal("server never listened")
	}
	var got []byte
	buf := make([]byte, 64*1024)
	for iter := 0; len(got) < len(content) && iter < 200; iter++ {
		k.RunSlice(200_000)
		n, err := ep.Read(buf)
		if err != nil && !errors.Is(err, netstack.ErrWouldBlock) {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(content) {
		t.Fatalf("received %d bytes, want %d", len(got), len(content))
	}
	for i := range got {
		if got[i] != content[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], content[i])
		}
	}
	k.RunSlice(500_000)
	if task.ExitCode != len(content) {
		t.Errorf("exit = %d, want %d", task.ExitCode, len(content))
	}
}

// TestSendfileBadFds covers the error paths.
func TestSendfileBadFds(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	.equ SYS_sendfile 40
	_start:
		mov64 rax, SYS_sendfile
		mov64 rdi, 9        ; not a socket
		mov64 rsi, 9        ; not a file
		mov64 rdx, 0
		mov64 r10, 64
		syscall
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != -EBADF {
		t.Errorf("exit = %d, want -EBADF", task.ExitCode)
	}
}

// sendfileRig is a task holding a connected, host-peered socket and an
// open file, for driving sysSendfile call by call. The guest program is
// never run; dispatch is called directly.
type sendfileRig struct {
	k       *Kernel
	task    *Task
	client  *netstack.Endpoint // host side: reads what sendfile sent
	server  *netstack.Endpoint // the socket behind sockFd
	sockFd  int
	fileFd  int
	content []byte
}

func newSendfileRig(t *testing.T, cfg Config, plan netstack.FaultPlan, nonblock bool) *sendfileRig {
	t.Helper()
	k := New(cfg)
	// Chaos-enabled kernels install their own plan; the rig's replaces it
	// (nil = no packet faults) so each case controls the socket exactly.
	k.Net.SetFaults(plan)
	r := &sendfileRig{k: k, content: make([]byte, 10_000)}
	for i := range r.content {
		r.content[i] = byte(i % 251)
	}
	if err := k.FS.WriteFile("/blob", r.content, 0o644); err != nil {
		t.Fatal(err)
	}
	r.task = idleTask(t, k)
	l, err := k.Net.Listen(8085, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.client, err = k.Net.Connect(8085); err != nil {
		t.Fatal(err)
	}
	if r.server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	r.sockFd = r.task.Files.Alloc(&FD{Kind: FDSocket, Sock: r.server, Nonblock: nonblock})
	h, err := k.FS.Open("/blob", fs.OpenRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.fileFd = r.task.Files.Alloc(&FD{Kind: FDFile, File: h, Path: "/blob"})
	return r
}

func (r *sendfileRig) sendfile(offPtr, count uint64) sysResult {
	return r.k.dispatch(r.task, SysSendfile, [6]uint64{uint64(r.sockFd), uint64(r.fileFd), offPtr, count})
}

func (r *sendfileRig) offset(t *testing.T) int64 {
	t.Helper()
	fd, _ := r.task.Files.Get(r.fileFd)
	off, err := fd.File.Seek(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

// fill leaves exactly free bytes of space in the client's receive buffer.
func (r *sendfileRig) fill(t *testing.T, free int) {
	t.Helper()
	pad := make([]byte, netstack.RecvBufSize-free)
	if n, err := r.server.Write(pad); n != len(pad) || err != nil {
		t.Fatalf("fill: %d, %v", n, err)
	}
}

// drain reads everything buffered at the client and returns the last n
// bytes (what followed the fill padding).
func (r *sendfileRig) drain(t *testing.T, n int) []byte {
	t.Helper()
	buf := make([]byte, 2*netstack.RecvBufSize)
	got, err := r.client.Read(buf)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return buf[got-n : got]
}

// countingPlan never injects anything and counts how often it is asked.
type countingPlan struct{ resets, drops, delays int }

func (p *countingPlan) Reset(uint64) bool { p.resets++; return false }
func (p *countingPlan) Drop(uint64) bool  { p.drops++; return false }
func (p *countingPlan) Delay(uint64) bool { p.delays++; return false }

// resetPlan injects an RST on the first write that consults it.
type resetPlan struct{ countingPlan }

func (p *resetPlan) Reset(uint64) bool { p.resets++; return p.resets == 1 }

// TestSendfileEdges pins the order of sendfile's observable effects: what
// each call returns, where it leaves the file offset, what reaches the
// client and how often the fault plan is consulted.
func TestSendfileEdges(t *testing.T) {
	t.Run("full nonblocking socket: EAGAIN, offset untouched", func(t *testing.T) {
		r := newSendfileRig(t, Config{}, nil, true)
		r.fill(t, 0)
		if res := r.sendfile(0, 4096); res.kind != resNormal || res.ret != -EAGAIN {
			t.Fatalf("sendfile = %+v, want -EAGAIN", res)
		}
		if off := r.offset(t); off != 0 {
			t.Errorf("offset = %d after EAGAIN, want 0", off)
		}
	})
	t.Run("full blocking socket: blocks until writable, offset untouched", func(t *testing.T) {
		r := newSendfileRig(t, Config{}, nil, false)
		r.fill(t, 0)
		res := r.sendfile(0, 4096)
		if res.kind != resBlocked {
			t.Fatalf("sendfile = %+v, want blocked", res)
		}
		if off := r.offset(t); off != 0 {
			t.Errorf("offset = %d while blocked, want 0", off)
		}
		if res.poll() {
			t.Error("poll true while the socket is still full")
		}
		r.drain(t, 0)
		if !res.poll() {
			t.Error("poll false after the client drained")
		}
	})
	t.Run("partial send rewinds by the unsent bytes", func(t *testing.T) {
		r := newSendfileRig(t, Config{}, nil, true)
		r.fill(t, 1000)
		if res := r.sendfile(0, 4096); res.ret != 1000 {
			t.Fatalf("sendfile = %+v, want 1000", res)
		}
		if off := r.offset(t); off != 1000 {
			t.Errorf("offset = %d, want 1000", off)
		}
		if got := r.drain(t, 1000); !bytes.Equal(got, r.content[:1000]) {
			t.Error("client did not receive the first 1000 bytes of the file")
		}
		// The next call continues where the partial one stopped.
		if res := r.sendfile(0, 4096); res.ret != 4096 {
			t.Fatalf("second sendfile = %+v, want 4096", res)
		}
		if got := r.drain(t, 4096); !bytes.Equal(got, r.content[1000:5096]) {
			t.Error("second send did not continue at offset 1000")
		}
	})
	t.Run("short file: sends what is left, then 0", func(t *testing.T) {
		r := newSendfileRig(t, Config{}, nil, true)
		fd, _ := r.task.Files.Get(r.fileFd)
		fd.File.Seek(-100, 2)
		if res := r.sendfile(0, 262144); res.ret != 100 {
			t.Fatalf("sendfile = %+v, want 100", res)
		}
		if got := r.drain(t, 100); !bytes.Equal(got, r.content[len(r.content)-100:]) {
			t.Error("client did not receive the file's tail")
		}
		if res := r.sendfile(0, 262144); res.kind != resNormal || res.ret != 0 {
			t.Fatalf("sendfile at EOF = %+v, want 0", res)
		}
	})
	t.Run("EOF returns 0 before the socket is consulted", func(t *testing.T) {
		plan := &countingPlan{}
		r := newSendfileRig(t, Config{}, plan, true)
		fd, _ := r.task.Files.Get(r.fileFd)
		fd.File.Seek(0, 2)
		r.fill(t, 0) // full socket: still 0, not EAGAIN
		asked := plan.resets
		if res := r.sendfile(0, 4096); res.kind != resNormal || res.ret != 0 {
			t.Fatalf("sendfile at EOF on a full socket = %+v, want 0", res)
		}
		r.client.InjectRST() // reset socket: still 0, not ECONNRESET
		if res := r.sendfile(0, 4096); res.kind != resNormal || res.ret != 0 {
			t.Fatalf("sendfile at EOF on a reset socket = %+v, want 0", res)
		}
		if plan.resets != asked {
			t.Errorf("fault plan consulted %d times at EOF, want 0", plan.resets-asked)
		}
	})
	t.Run("chaos short write sends a prefix", func(t *testing.T) {
		r := newSendfileRig(t, Config{ChaosSeed: 7, ChaosRate: 1}, nil, true)
		res := r.sendfile(0, 4096)
		if res.kind != resNormal || res.ret < 1 || res.ret >= 4096 {
			t.Fatalf("sendfile = %+v, want a short count in [1, 4096)", res)
		}
		if off := r.offset(t); off != res.ret {
			t.Errorf("offset = %d, want %d", off, res.ret)
		}
		if got := r.drain(t, int(res.ret)); !bytes.Equal(got, r.content[:res.ret]) {
			t.Error("client did not receive exactly the short prefix")
		}
	})
	t.Run("fault plan Reset asked once per call that reaches the socket", func(t *testing.T) {
		plan := &countingPlan{}
		r := newSendfileRig(t, Config{}, plan, true)
		r.fill(t, 0)
		base := *plan // fill itself wrote through the plan
		if res := r.sendfile(0, 4096); res.ret != -EAGAIN {
			t.Fatalf("sendfile = %+v, want -EAGAIN", res)
		}
		if got := plan.resets - base.resets; got != 1 {
			t.Errorf("Reset asked %d times on the socket-full call, want 1", got)
		}
		if plan.drops != base.drops || plan.delays != base.delays {
			t.Error("Drop/Delay asked although nothing could be sent")
		}
		r.drain(t, 0)
		if res := r.sendfile(0, 4096); res.ret != 4096 {
			t.Fatalf("sendfile = %+v, want 4096", res)
		}
		if got := plan.resets - base.resets; got != 2 {
			t.Errorf("Reset asked %d times after two calls, want 2", got)
		}
		if plan.drops-base.drops != 1 || plan.delays-base.delays != 1 {
			t.Errorf("Drop/Delay asked %d/%d times for one sent segment, want 1/1",
				plan.drops-base.drops, plan.delays-base.delays)
		}
	})
	t.Run("injected RST: ECONNRESET", func(t *testing.T) {
		r := newSendfileRig(t, Config{}, &resetPlan{}, true)
		if res := r.sendfile(0, 4096); res.ret != -ECONNRESET {
			t.Fatalf("sendfile = %+v, want -ECONNRESET", res)
		}
		if off := r.offset(t); off != 0 {
			t.Errorf("offset = %d after ECONNRESET, want 0: nothing was sent", off)
		}
	})
	t.Run("closed client: EPIPE", func(t *testing.T) {
		r := newSendfileRig(t, Config{}, nil, true)
		r.client.Close()
		if res := r.sendfile(0, 4096); res.ret != -EPIPE {
			t.Fatalf("sendfile = %+v, want -EPIPE", res)
		}
		if off := r.offset(t); off != 0 {
			t.Errorf("offset = %d after EPIPE, want 0: nothing was sent", off)
		}
	})
	t.Run("file not open for reading: EBADF", func(t *testing.T) {
		r := newSendfileRig(t, Config{}, nil, true)
		h, err := r.k.FS.Open("/blob", fs.OpenWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.fileFd = r.task.Files.Alloc(&FD{Kind: FDFile, File: h, Path: "/blob"})
		if res := r.sendfile(0, 4096); res.ret != -EBADF {
			t.Fatalf("sendfile = %+v, want -EBADF", res)
		}
	})
}

// TestSendfileOffsetPointer: a non-null offset_ptr names where to read
// from and receives the advanced position; the file offset is neither
// used nor moved. (It used to be ignored: the call silently read from,
// and advanced, the file offset.)
func TestSendfileOffsetPointer(t *testing.T) {
	r := newSendfileRig(t, Config{}, nil, true)
	ptr := r.task.CPU.Regs[isa.RSP] - 256 // scratch in the mapped stack
	setOff := func(v uint64) {
		t.Helper()
		if err := r.task.AS.WriteU64(ptr, v); err != nil {
			t.Fatal(err)
		}
	}
	wantOff := func(want uint64) {
		t.Helper()
		if got, err := r.task.AS.ReadU64(ptr); err != nil || got != want {
			t.Errorf("*offset_ptr = %d, %v; want %d", got, err, want)
		}
		if off := r.offset(t); off != 0 {
			t.Errorf("file offset = %d, want 0: sendfile with offset_ptr must leave it alone", off)
		}
	}

	setOff(5000)
	if res := r.sendfile(ptr, 1000); res.ret != 1000 {
		t.Fatalf("sendfile = %+v, want 1000", res)
	}
	if got := r.drain(t, 1000); !bytes.Equal(got, r.content[5000:6000]) {
		t.Error("client did not receive bytes 5000..5999 of the file")
	}
	wantOff(6000)

	// Partial send: the pointer advances by what was sent.
	r.fill(t, 300)
	if res := r.sendfile(ptr, 1000); res.ret != 300 {
		t.Fatalf("sendfile into 300 free bytes = %+v, want 300", res)
	}
	if got := r.drain(t, 300); !bytes.Equal(got, r.content[6000:6300]) {
		t.Error("client did not receive bytes 6000..6299 of the file")
	}
	wantOff(6300)

	// Full socket: EAGAIN, pointer untouched.
	r.fill(t, 0)
	if res := r.sendfile(ptr, 1000); res.ret != -EAGAIN {
		t.Fatalf("sendfile into a full socket = %+v, want -EAGAIN", res)
	}
	wantOff(6300)
	r.drain(t, 0)

	// At and past EOF: 0, pointer untouched.
	for _, off := range []uint64{uint64(len(r.content)), 1 << 40} {
		setOff(off)
		if res := r.sendfile(ptr, 1000); res.kind != resNormal || res.ret != 0 {
			t.Fatalf("sendfile at offset %d = %+v, want 0", off, res)
		}
		wantOff(off)
	}

	// A pointer the guest cannot read: EFAULT before anything moves.
	if res := r.sendfile(0x10, 1000); res.ret != -EFAULT {
		t.Fatalf("sendfile with an unmapped offset_ptr = %+v, want -EFAULT", res)
	}
	if n := r.client.Buffered(); n != 0 {
		t.Errorf("%d bytes reached the client on the EFAULT path", n)
	}
	if off := r.offset(t); off != 0 {
		t.Errorf("file offset = %d after EFAULT, want 0", off)
	}
}
