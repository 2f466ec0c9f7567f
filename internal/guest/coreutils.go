package guest

import (
	"fmt"
	"sync"
)

// CoreutilNames lists the ten utilities of Table III, in the paper's
// order.
var CoreutilNames = []string{
	"ls", "pwd", "chmod", "mkdir", "mv", "cp", "rm", "touch", "cat", "clear",
}

// threadedUtils marks the coreutils whose glibc-2.31 build initialises
// pthread support and therefore runs the Listing-1 routine — the 40% of
// utilities Table III reports as affected on Ubuntu 20.04.
var threadedUtils = map[string]bool{
	"ls": true, "mkdir": true, "mv": true, "cp": true,
}

// coreutilKey names one built utility: the libc is the variant after
// Coreutil has applied threadedUtils.
type coreutilKey struct {
	name string
	libc Libc
}

// coreutils memoizes Coreutil by (utility, libc), so a lookup neither
// concatenates nor hashes the multi-KB source. It is the only cache the
// utilities go through.
var (
	coreutilsMu sync.Mutex
	coreutils   = map[coreutilKey]*Program{}
)

// Coreutil builds one of the ten utilities against a libc variant. For
// the Ubuntu variant, thread support follows the utility (threadedUtils);
// the Clear Linux variant affects every program via ptmalloc_init. The
// Program is built, and its source text put together, on the first call
// for a (utility, libc); later calls share it, immutable.
func Coreutil(name string, libc Libc) (*Program, error) {
	body, ok := coreutilBodies[name]
	if !ok {
		return nil, fmt.Errorf("guest: unknown coreutil %q", name)
	}
	if !libc.clearLinux {
		libc.ThreadedInit = threadedUtils[name]
	}
	key := coreutilKey{name, libc}
	coreutilsMu.Lock()
	defer coreutilsMu.Unlock()
	if p, ok := coreutils[key]; ok {
		return p, nil
	}
	p, err := Build(name+"-"+libc.Name, Header+Crt0+libc.Source()+body)
	if err != nil {
		return nil, err
	}
	coreutils[key] = p
	return p, nil
}

// SetupCoreutilFS populates the filesystem the utilities operate on.
// The harness calls it once per run.
var CoreutilFSFiles = map[string]string{
	"/tmp/file.txt":  "the quick brown fox jumps over the lazy dog\n",
	"/tmp/src.txt":   "source file contents for cp and mv tests\n",
	"/etc/hostname":  "simhost\n",
	"/var/log/dummy": "log\n",
}

// coreutilBodies holds each utility's main. Syscall mixes mirror what
// the real utilities do at small scale: metadata, directory reads,
// open/read/write/close loops.
var coreutilBodies = map[string]string{
	// ls: getdents on "/" and write the entries to stdout.
	"ls": `
	main:
		lea rdi, ls_path
		mov64 rsi, O_RDONLY
		mov64 rdx, 0
		call libc_open
		mov r13, rax             ; dirfd
		mov rdi, r13
		mov64 rsi, DATA+0x400
		mov64 rdx, 1024
		call libc_getdents
		mov r14, rax             ; byte count
		mov64 rdi, 1
		mov64 rsi, DATA+0x400
		mov rdx, r14
		call libc_write
		mov rdi, r13
		call libc_close
		mov64 rax, 0
		ret
	ls_path:
		.ascii "/"
		.byte 0
	`,

	// pwd: getcwd + write.
	"pwd": `
	main:
		mov64 rdi, DATA+0x400
		mov64 rsi, 64
		call libc_getcwd
		mov rdx, rax
		mov64 rdi, 1
		mov64 rsi, DATA+0x400
		call libc_write
		mov64 rax, 0
		ret
	`,

	// chmod: stat + chmod of a file.
	"chmod": `
	main:
		lea rdi, chmod_path
		mov64 rsi, DATA+0x400
		call libc_stat
		lea rdi, chmod_path
		mov64 rsi, 0x1ED     ; 0755
		call libc_chmod
		ret
	chmod_path:
		.ascii "/tmp/file.txt"
		.byte 0
	`,

	// mkdir: create a directory, stat it.
	"mkdir": `
	main:
		lea rdi, mkdir_path
		mov64 rsi, 0x1ED
		call libc_mkdir
		lea rdi, mkdir_path
		mov64 rsi, DATA+0x400
		call libc_stat
		mov64 rax, 0
		ret
	mkdir_path:
		.ascii "/tmp/newdir"
		.byte 0
	`,

	// mv: rename a file.
	"mv": `
	main:
		lea rdi, mv_src
		lea rsi, mv_dst
		call libc_rename
		ret
	mv_src:
		.ascii "/tmp/src.txt"
		.byte 0
	mv_dst:
		.ascii "/tmp/moved.txt"
		.byte 0
	`,

	// cp: open src, read chunks, write to a newly created dst.
	"cp": `
	main:
		lea rdi, cp_src
		mov64 rsi, O_RDONLY
		mov64 rdx, 0
		call libc_open
		mov r13, rax                ; src fd
		lea rdi, cp_dst
		mov64 rsi, O_WRONLY+O_CREAT+O_TRUNC
		mov64 rdx, 0x1A4            ; 0644
		call libc_open
		mov r14, rax                ; dst fd
	cp_loop:
		mov rdi, r13
		mov64 rsi, DATA+0x400
		mov64 rdx, 512
		call libc_read
		cmpi rax, 0
		jle cp_done          ; EOF or error
		mov rdx, rax
		mov rdi, r14
		mov64 rsi, DATA+0x400
		call libc_write
		jmp cp_loop
	cp_done:
		mov rdi, r13
		call libc_close
		mov rdi, r14
		call libc_close
		mov64 rax, 0
		ret
	cp_src:
		.ascii "/tmp/src.txt"
		.byte 0
	cp_dst:
		.ascii "/tmp/copy.txt"
		.byte 0
	`,

	// rm: unlink.
	"rm": `
	main:
		lea rdi, rm_path
		call libc_unlink
		ret
	rm_path:
		.ascii "/tmp/file.txt"
		.byte 0
	`,

	// touch: utimensat(0, path, NULL, 0).
	"touch": `
	main:
		mov64 rdi, 0
		lea rsi, touch_path
		mov64 rdx, 0
		mov64 r10, 0
		call libc_utimensat
		ret
	touch_path:
		.ascii "/tmp/file.txt"
		.byte 0
	`,

	// cat: open, read chunks, write to stdout.
	"cat": `
	main:
		lea rdi, cat_path
		mov64 rsi, O_RDONLY
		mov64 rdx, 0
		call libc_open
		mov r13, rax
	cat_loop:
		mov rdi, r13
		mov64 rsi, DATA+0x400
		mov64 rdx, 256
		call libc_read
		cmpi rax, 0
		jle cat_done         ; EOF or error
		mov rdx, rax
		mov64 rdi, 1
		mov64 rsi, DATA+0x400
		call libc_write
		jmp cat_loop
	cat_done:
		mov rdi, r13
		call libc_close
		mov64 rax, 0
		ret
	cat_path:
		.ascii "/tmp/file.txt"
		.byte 0
	`,

	// clear: write the terminal reset escape sequence.
	"clear": `
	main:
		mov64 rdi, 1
		lea rsi, clear_seq
		mov64 rdx, 7
		call libc_write
		mov64 rax, 0
		ret
	clear_seq:
		.byte 0x1b
		.ascii "[H"
		.byte 0x1b
		.ascii "[2J"
	`,
}
