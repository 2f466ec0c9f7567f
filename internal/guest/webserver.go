package guest

import (
	"fmt"
	"path"
	"sync"

	"lazypoline/internal/fs"
)

// ServerStyle selects the web server whose syscall mix we reproduce.
type ServerStyle uint8

// Server styles.
const (
	// StyleNginx mimics nginx 1.25: accept4, per-request fstat on the
	// open file, 16 KiB output chunks.
	StyleNginx ServerStyle = iota + 1
	// StyleLighttpd mimics lighttpd 1.4: plain accept, a path stat per
	// request (stat-cache refresh), 8 KiB chunks.
	StyleLighttpd
)

func (s ServerStyle) String() string {
	if s == StyleLighttpd {
		return "lighttpd"
	}
	return "nginx"
}

// MarshalText makes a []ServerStyle encode as a JSON array of style names
// rather than base64 (ServerStyle's kind is uint8, so encoding/json would
// otherwise treat the slice as bytes). Benchmark snapshots embed the sweep
// config and should stay human-readable.
func (s ServerStyle) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// WebServerConfig parameterises a server build.
type WebServerConfig struct {
	Style ServerStyle
	// Port is the listening port.
	Port uint16
	// Path is the static file served for every request.
	Path string
	// Workers is the number of pre-forked worker processes (the paper
	// evaluates 1 and 12).
	Workers int
	// AppWorkIters is the per-request application work loop (request
	// parsing, header generation, access logging, timer bookkeeping —
	// everything a real web server does besides syscalls). Each iteration
	// costs ~2 cycles. Zero selects DefaultAppWorkIters, calibrated so a
	// small-file request costs ~30k cycles (~70k req/s/core at 2.1 GHz,
	// nginx-like for tiny static files over loopback).
	AppWorkIters int
}

// DefaultAppWorkIters is the default per-request work loop count.
const DefaultAppWorkIters = 14000

// Request is the fixed request message every load driver sends, padded
// to a fixed size like wrk's small keep-alive requests. The server reads
// requests by size, never by content.
const Request = "GET /static   \r\n"

// RequestSize is the size of Request.
const RequestSize = len(Request)

// StaticPath is where the served file lives.
const StaticPath = "/www/static"

// InstallStatic writes the served file — size bytes cycling through
// 'a'..'z' — at StaticPath and seals fsys: the content is final, so a
// guest write fails with EROFS and reads do no atime work.
func InstallStatic(fsys *fs.FS, size int) error {
	content := staticContent(size)
	if err := fsys.MkdirAll(path.Dir(StaticPath), 0o755); err != nil {
		return err
	}
	if err := fsys.WriteFile(StaticPath, content, 0o644); err != nil {
		return err
	}
	fsys.Seal()
	return nil
}

// staticSizes bounds the sizes staticContent keeps: a sweep serves a
// few. A full cache is emptied before it takes a new size.
const staticSizes = 8

// statics caches the served file's content by size. Sizes come from the
// host's configuration, never from a guest, and fs.WriteFile copies the
// content into the inode, so one slice serves every kernel in the
// process and is never written after it is built.
var statics struct {
	sync.Mutex
	bySize map[int][]byte
}

// staticContent returns size bytes with content[i] = 'a' + i%26, built
// once per size and process.
func staticContent(size int) []byte {
	statics.Lock()
	defer statics.Unlock()
	if c, ok := statics.bySize[size]; ok {
		return c
	}
	// Built by doubling a copied alphabet: every prefix copied is a
	// multiple of 26 bytes long.
	content := make([]byte, size)
	for n := copy(content, "abcdefghijklmnopqrstuvwxyz"); n < size; n *= 2 {
		copy(content[n:], content[:n])
	}
	switch {
	case statics.bySize == nil:
		statics.bySize = make(map[int][]byte, staticSizes)
	case len(statics.bySize) >= staticSizes:
		clear(statics.bySize)
	}
	statics.bySize[size] = content
	return content
}

// ResponseHeaderSize is the fixed response header the server sends
// before the file body.
const ResponseHeaderSize = 16

// WebServer builds the event-loop web server guest: a master process
// that binds/listens, pre-forks Workers children sharing the listening
// socket, and reaps them forever. Each worker runs an epoll loop with
// keep-alive connections, serving Path on every request.
func WebServer(cfg WebServerConfig) (*Program, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.AppWorkIters <= 0 {
		cfg.AppWorkIters = DefaultAppWorkIters
	}
	chunk := 16 * 1024
	acceptNr := "SYS_accept4"
	statSeq := `
		; nginx: fstat(filefd, statbuf)
		mov64 rax, SYS_fstat
		mov rdi, r12
		mov64 rsi, DATA+0x100
		syscall
	`
	// nginx transmits with sendfile (one in-kernel copy, few syscalls
	// even for large files); lighttpd uses a read/write chunk loop.
	bodyLoop := `
	sendloop:
		mov64 rax, SYS_sendfile
		mov rdi, r9
		mov rsi, r12
		mov64 rdx, 0
		mov64 r10, 262144
		syscall
		cmpi rax, 0
		jg sendloop
		jz sendfile_done
		cmpi rax, -4             ; EINTR: retry
		jz sendloop
		cmpi rax, -11            ; EAGAIN: retry
		jz sendloop
		jmp conn_gone            ; EPIPE/ECONNRESET: client is gone
	sendfile_done:
	`
	if cfg.Style == StyleLighttpd {
		chunk = 8 * 1024
		acceptNr = "SYS_accept"
		statSeq = `
		; lighttpd: stat(path, statbuf) — stat-cache refresh
		mov64 rax, SYS_stat
		lea rdi, file_path
		mov64 rsi, DATA+0x100
		syscall
	`
		bodyLoop = `
	readloop:
		mov64 rax, SYS_read
		mov rdi, r12
		mov64 rsi, DATA+0x1000
		mov64 rdx, CHUNK
		syscall
		cmpi rax, 0
		jz served_jmp
		jg readok
		cmpi rax, -4             ; EINTR: retry
		jz readloop
		cmpi rax, -11            ; EAGAIN: retry
		jz readloop
		jmp conn_gone
	readok:
		; write the chunk fully, handling partial writes (the client may
		; drain its receive buffer slower than we fill it)
		mov64 r13, DATA+0x1000   ; cursor
		mov r8, rax              ; remaining
	writeloop:
		mov rdi, r9
		mov rsi, r13
		mov rdx, r8
		mov64 rax, SYS_write
		syscall
		cmpi rax, 0
		jg writeok
		cmpi rax, -4             ; EINTR: retry
		jz writeloop
		cmpi rax, -11            ; EAGAIN: retry
		jz writeloop
		jmp conn_gone            ; EPIPE/ECONNRESET: client went away
	writeok:
		add r13, rax
		sub r8, rax
		jnz writeloop
		jmp readloop
	served_jmp:
		jmp served
	`
	}

	src := Header + fmt.Sprintf(`
	.equ PORT_HI %d
	.equ PORT_LO %d
	.equ NWORKERS %d
	.equ CHUNK %d
	.equ APPWORK %d

	_start:
		; listenfd = socket()
		mov64 rax, SYS_socket
		mov64 rdi, 2
		mov64 rsi, 0x801      ; SOCK_STREAM | SOCK_NONBLOCK (listener)
		mov64 rdx, 0
		syscall
		mov r15, rax
		; bind(listenfd, sockaddr, 8)
		mov64 rax, SYS_bind
		mov rdi, r15
		lea rsi, sockaddr
		mov64 rdx, 8
		syscall
		; listen(listenfd, 128)
		mov64 rax, SYS_listen
		mov rdi, r15
		mov64 rsi, 128
		syscall
		; pre-fork the workers
		mov64 rbp, NWORKERS
	forkloop:
		cmpi rbp, 0
		jz master_wait
		mov64 rax, SYS_fork
		syscall
		cmpi rax, 0
		jz worker
		addi rbp, -1
		jmp forkloop
	master_wait:
		mov64 rdi, -1
		mov64 rsi, 0
		mov64 rdx, 0
		mov64 r10, 0
		mov64 rax, SYS_wait4
		syscall
		jmp master_wait

	worker:
		; epfd = epoll_create1(0)
		mov64 rax, SYS_epoll_create1
		mov64 rdi, 0
		syscall
		mov r14, rax
		; epoll_ctl(epfd, ADD, listenfd, ev{EPOLLIN})
		mov64 rbx, DATA+0x40
		mov64 rcx, 1
		store [rbx], rcx
		mov64 rax, SYS_epoll_ctl
		mov rdi, r14
		mov64 rsi, 1
		mov rdx, r15
		mov r10, rbx
		syscall

	evloop:
		; n = epoll_wait(epfd, events, 16, -1)
		mov64 rax, SYS_epoll_wait
		mov rdi, r14
		mov64 rsi, DATA+0x80
		mov64 rdx, 16
		mov64 r10, -1
		syscall
		mov rbp, rax
		mov64 rbx, DATA+0x80
	evnext:
		cmpi rbp, 0
		jz evloop
		load r9, [rbx+8]          ; event.data = fd
		cmp r9, r15
		jnz handle_conn

		; new connection: connfd = accept(listenfd)
		mov64 rax, %s
		mov rdi, r15
		mov64 rsi, 0
		mov64 rdx, 0
		mov64 r10, 0
		syscall
		cmpi rax, 0
		jl evdone                 ; raced with a sibling worker
		; epoll_ctl(epfd, ADD, connfd, ev{EPOLLIN})
		mov64 rcx, 1
		mov64 r8, DATA+0x40
		store [r8], rcx
		mov rdx, rax
		mov64 rax, SYS_epoll_ctl
		mov rdi, r14
		mov64 rsi, 1
		mov64 r10, DATA+0x40
		syscall
		jmp evdone

	handle_conn:
		; read the (16-byte) request
		mov64 rax, SYS_read
		mov rdi, r9
		mov64 rsi, DATA+0x200
		mov64 rdx, 16
		syscall
		cmpi rax, 0
		jg serve
		cmpi rax, -4              ; EINTR: retry
		jz handle_conn
		cmpi rax, -11             ; EAGAIN: retry
		jz handle_conn
		; EOF or hard error: deregister and close
		mov64 rax, SYS_epoll_ctl
		mov rdi, r14
		mov64 rsi, 2
		mov rdx, r9
		mov64 r10, 0
		syscall
		mov64 rax, SYS_close
		mov rdi, r9
		syscall
		jmp evdone

	serve:
		; application work: parse the request, build headers, log —
		; modelled as a fixed compute loop (see WebServerConfig.AppWorkIters)
		mov64 r8, APPWORK
	appwork:
		addi r8, -1
		jnz appwork
		; send the fixed response header fully, retrying EINTR/EAGAIN and
		; continuing partial writes (the static file is not open yet, so a
		; dead client exits via conn_gone_nofile)
		lea r13, resp_header
		mov64 r8, 16
	hdrloop:
		mov64 rax, SYS_write
		mov rdi, r9
		mov rsi, r13
		mov rdx, r8
		syscall
		cmpi rax, 0
		jg hdrok
		cmpi rax, -4              ; EINTR: retry
		jz hdrloop
		cmpi rax, -11             ; EAGAIN: retry
		jz hdrloop
		jmp conn_gone_nofile
	hdrok:
		add r13, rax
		sub r8, rax
		jnz hdrloop
		; open the static file
		mov64 rax, SYS_open
		lea rdi, file_path
		mov64 rsi, O_RDONLY
		mov64 rdx, 0
		syscall
		mov r12, rax
		%s
		%s
		jmp served
	conn_gone:
		mov64 rax, SYS_close
		mov rdi, r12
		syscall
	conn_gone_nofile:
		mov64 rax, SYS_epoll_ctl
		mov rdi, r14
		mov64 rsi, 2
		mov rdx, r9
		mov64 r10, 0
		syscall
		mov64 rax, SYS_close
		mov rdi, r9
		syscall
		jmp evdone
	served:
		mov64 rax, SYS_close
		mov rdi, r12
		syscall
		; keep-alive: the connection stays registered
	evdone:
		addi rbx, 16
		addi rbp, -1
		jmp evnext

	sockaddr:
		.byte 2, 0, PORT_HI, PORT_LO, 0, 0, 0, 0
	resp_header:
		.ascii "HTTP/1.1 200 OK\n"
	file_path:
		.ascii "%s"
		.byte 0
	`, cfg.Port>>8, cfg.Port&0xff, cfg.Workers, chunk, cfg.AppWorkIters, acceptNr, statSeq, bodyLoop, cfg.Path)

	return BuildCached(fmt.Sprintf("%s-%dw", cfg.Style, cfg.Workers), src)
}
