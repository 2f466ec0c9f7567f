// Package guest contains the guest-program corpus the evaluation runs:
// two libc variants reproducing the paper's extended-state ABI hazards,
// ten coreutils (Table III), the microbenchmark loop (Table II/Figure 4),
// a JIT program standing in for tcc -run (§V-A), and event-loop web
// servers with nginx-like and lighttpd-like syscall mixes (Figure 5).
//
// All programs are written in the simulator's assembly dialect and
// assembled at run time; Build loads them into a fresh task.
package guest

import (
	"fmt"

	"lazypoline/internal/asm"
	"lazypoline/internal/kernel"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
)

// Layout constants for guest programs.
const (
	// CodeBase is where program text is loaded.
	CodeBase = 0x10000
	// DataBase is the writable data segment.
	DataBase = 0x30000
	// DataSize is the data segment size.
	DataSize = 16 * mem.PageSize
)

// Program is an assembled, loadable guest program.
type Program struct {
	Name string
	// Source is the assembly text the program was built from.
	Source string
	Image  *loader.Image
}

// Build assembles source (entry at `_start`) into a Program with a
// writable data segment.
func Build(name, src string) (*Program, error) {
	p, err := asm.Assemble(src, CodeBase)
	if err != nil {
		return nil, fmt.Errorf("guest %s: %w", name, err)
	}
	img, err := loader.FromProgram(p, "_start", loader.Segment{
		Addr: DataBase,
		Prot: mem.ProtRW,
		Data: make([]byte, DataSize),
	})
	if err != nil {
		return nil, fmt.Errorf("guest %s: %w", name, err)
	}
	return &Program{Name: name, Source: src, Image: img}, nil
}

// Spawn loads the program into a kernel task.
func (p *Program) Spawn(k *kernel.Kernel) (*kernel.Task, error) {
	return k.SpawnImage(p.Image, p.Name)
}

// Header is prepended to every guest source: syscall numbers and shared
// constants.
const Header = `
	.equ SYS_read 0
	.equ SYS_write 1
	.equ SYS_open 2
	.equ SYS_close 3
	.equ SYS_stat 4
	.equ SYS_fstat 5
	.equ SYS_lseek 8
	.equ SYS_mmap 9
	.equ SYS_mprotect 10
	.equ SYS_rt_sigaction 13
	.equ SYS_rt_sigreturn 15
	.equ SYS_access 21
	.equ SYS_dup 32
	.equ SYS_dup2 33
	.equ SYS_getpid 39
	.equ SYS_sendfile 40
	.equ SYS_socket 41
	.equ SYS_accept 43
	.equ SYS_bind 49
	.equ SYS_listen 50
	.equ SYS_fork 57
	.equ SYS_execve 59
	.equ SYS_exit 60
	.equ SYS_wait4 61
	.equ SYS_kill 62
	.equ SYS_getcwd 79
	.equ SYS_rename 82
	.equ SYS_mkdir 83
	.equ SYS_unlink 87
	.equ SYS_chmod 90
	.equ SYS_prctl 157
	.equ SYS_gettid 186
	.equ SYS_getdents64 217
	.equ SYS_set_tid_address 218
	.equ SYS_epoll_wait 232
	.equ SYS_epoll_ctl 233
	.equ SYS_exit_group 231
	.equ SYS_set_robust_list 273
	.equ SYS_utimensat 280
	.equ SYS_accept4 288
	.equ SYS_epoll_create1 291
	.equ SYS_pipe2 293
	.equ SYS_getrandom 318

	.equ DATA 0x30000
	.equ O_RDONLY 0x0
	.equ O_WRONLY 0x1
	.equ O_RDWR 0x2
	.equ O_CREAT 0x40
	.equ O_TRUNC 0x200
	.equ O_NONBLOCK 0x800
`
