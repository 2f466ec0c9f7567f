package kernel

import (
	"errors"
	"testing"

	"lazypoline/internal/netstack"
)

// echoServer is a single-connection echo server guest: accept one
// connection, read up to 64 bytes, write them back, close, exit with the
// byte count.
const echoServer = `
_start:
	mov64 rax, SYS_socket
	mov64 rdi, 2
	mov64 rsi, 1
	syscall
	mov rbx, rax          ; listenfd
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
	mov r13, rax          ; connfd
	mov64 rax, SYS_read
	mov rdi, r13
	mov64 rsi, 0x7fef0000
	mov64 rdx, 64
	syscall
	mov r14, rax          ; n
	mov64 rax, SYS_write
	mov rdi, r13
	mov64 rsi, 0x7fef0000
	mov rdx, r14
	syscall
	mov64 rax, SYS_close
	mov rdi, r13
	syscall
	mov rdi, r14
	mov64 rax, SYS_exit
	syscall
.align 8
sa:
	.byte 2, 0, 0x1f, 0x90   ; port 8080
	.byte 0, 0, 0, 0
`

func TestGuestEchoServer(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, echoServer)

	// Boot until listening.
	listening := false
	for i := 0; i < 100 && !listening; i++ {
		k.RunSlice(100_000)
		if _, err := k.Net.Connect(9999); !errors.Is(err, netstack.ErrConnRefused) {
			t.Fatal("sanity: port 9999 should refuse")
		}
		if ep, err := k.Net.Connect(8080); err == nil {
			// Connected: drive the exchange.
			if _, err := ep.Write([]byte("ping-pong")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			got := 0
			for iter := 0; got < 9 && iter < 100; iter++ {
				k.RunSlice(200_000)
				n, err := ep.Read(buf[got:])
				if err != nil && !errors.Is(err, netstack.ErrWouldBlock) {
					t.Fatal(err)
				}
				got += n
			}
			if string(buf[:got]) != "ping-pong" {
				t.Fatalf("echo = %q", buf[:got])
			}
			listening = true
		}
	}
	if !listening {
		t.Fatal("server never started listening")
	}
	// Let the guest finish.
	k.RunSlice(500_000)
	if task.State() != TaskZombie || task.ExitCode != 9 {
		t.Errorf("state=%v exit=%d, want zombie/9", task.State(), task.ExitCode)
	}
}

func TestEpollGuest(t *testing.T) {
	// Guest: epoll over a listener; waits for one connection, reads 4
	// bytes, exits with the first byte.
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_socket
		mov64 rdi, 2
		mov64 rsi, 0x801
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
		mov64 rax, SYS_epoll_create1
		mov64 rdi, 0
		syscall
		mov r14, rax
		; watch the listener
		mov64 r8, 0x7fef0040
		mov64 rcx, 1
		store [r8], rcx
		mov64 rax, SYS_epoll_ctl
		mov rdi, r14
		mov64 rsi, 1
		mov rdx, rbx
		mov r10, r8
		syscall
		; wait for the connection
		mov64 rax, SYS_epoll_wait
		mov rdi, r14
		mov64 rsi, 0x7fef0080
		mov64 rdx, 8
		mov64 r10, -1
		syscall
		; accept + read
		mov64 rax, SYS_accept
		mov rdi, rbx
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov r13, rax
		mov64 rax, SYS_read
		mov rdi, r13
		mov64 rsi, 0x7fef0100
		mov64 rdx, 4
		syscall
		mov64 rbx, 0x7fef0100
		loadb rdi, [rbx]
		mov64 rax, SYS_exit
		syscall
	.align 8
	sa:
		.byte 2, 0, 0x1f, 0x91   ; port 8081
		.byte 0, 0, 0, 0
	`)

	var ep *netstack.Endpoint
	for i := 0; i < 100 && ep == nil; i++ {
		k.RunSlice(100_000)
		if e, err := k.Net.Connect(8081); err == nil {
			ep = e
		}
	}
	if ep == nil {
		t.Fatal("server never listened")
	}
	if _, err := ep.Write([]byte{0x41, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && task.Alive(); i++ {
		k.RunSlice(200_000)
	}
	if task.ExitCode != 0x41 {
		t.Errorf("exit = %#x, want 0x41", task.ExitCode)
	}
}

func TestNonblockingAcceptReturnsEAGAIN(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_socket
		mov64 rdi, 2
		mov64 rsi, 0x801      ; SOCK_NONBLOCK
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
		syscall               ; no pending conns -> -EAGAIN
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	.align 8
	sa:
		.byte 2, 0, 0x1f, 0x92
		.byte 0, 0, 0, 0
	`)
	mustRun(t, k)
	if task.ExitCode != -EAGAIN {
		t.Errorf("exit = %d, want -EAGAIN", task.ExitCode)
	}
}

func TestBindTwiceFails(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
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
		; second socket on the same port
		mov64 rax, SYS_socket
		mov64 rdi, 2
		mov64 rsi, 1
		syscall
		mov r13, rax
		mov64 rax, SYS_bind
		mov rdi, r13
		lea rsi, sa
		mov64 rdx, 8
		syscall
		mov64 rax, SYS_listen
		mov rdi, r13
		mov64 rsi, 8
		syscall               ; -EADDRINUSE
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	.align 8
	sa:
		.byte 2, 0, 0x1f, 0x93
		.byte 0, 0, 0, 0
	`)
	mustRun(t, k)
	if task.ExitCode != -EADDRINUSE {
		t.Errorf("exit = %d, want -EADDRINUSE", task.ExitCode)
	}
}

// TestEpollReadyOrderAscendingFd: whatever order fds were added, modified,
// removed and re-added in, ready events come out in ascending fd order,
// with the masks last set, and max cuts the walk at the lowest fds.
func TestEpollReadyOrderAscendingFd(t *testing.T) {
	k := New(Config{})
	task := idleTask(t, k)
	// Readable pipe ends at scattered descriptor numbers.
	fds := []int{23, 5, 17, 9, 40, 12, 31}
	for _, fd := range fds {
		r, w := netstack.NewPipe()
		if _, err := w.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		task.Files.Install(fd, &FD{Kind: FDSocket, Sock: r})
	}
	ep := NewEpoll()
	ctl := func(op, fd int, events uint32) {
		t.Helper()
		if err := ep.Ctl(op, fd, events); err != nil {
			t.Fatalf("Ctl(%d, %d): %v", op, fd, err)
		}
	}
	const add, del, mod = 1, 2, 3
	for _, fd := range fds {
		ctl(add, fd, EpollIn)
	}
	ctl(del, 17, 0)
	ctl(mod, 9, EpollIn|EpollOut)
	ctl(del, 5, 0)
	ctl(add, 5, EpollOut) // re-added at the front, watching only writability
	ctl(del, 40, 0)
	ctl(add, 3, EpollIn) // not in the fd table: skipped
	ctl(del, 99, 0)      // deleting an unwatched fd is a no-op
	if err := ep.Ctl(add, 9, EpollIn); err == nil {
		t.Error("adding a watched fd twice succeeded")
	}
	if err := ep.Ctl(mod, 17, EpollIn); err == nil {
		t.Error("modifying an unwatched fd succeeded")
	}

	want := []epollEvent{
		{fd: 5, events: EpollOut},
		{fd: 9, events: EpollIn | EpollOut},
		{fd: 12, events: EpollIn},
		{fd: 23, events: EpollIn},
		{fd: 31, events: EpollIn},
	}
	got := k.epollReady(task, ep, 16, nil)
	if len(got) != len(want) {
		t.Fatalf("ready = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ready[%d] = %+v, want %+v (all: %v)", i, got[i], want[i], got)
		}
	}
	if cut := k.epollReady(task, ep, 2, nil); len(cut) != 2 || cut[0].fd != 5 || cut[1].fd != 9 {
		t.Fatalf("max=2 returned %v, want fds 5 and 9", cut)
	}
}
