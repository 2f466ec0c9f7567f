package kernel

import "testing"

func TestDupSharesOffset(t *testing.T) {
	k := New(Config{})
	if err := k.FS.WriteFile("/f", []byte("abcdefgh"), 0o644); err != nil {
		t.Fatal(err)
	}
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_open
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov rbx, rax
		mov64 rax, SYS_dup
		mov rdi, rbx
		syscall
		mov r13, rax          ; dup fd
		; read 4 via original, then 4 via dup: dup'ed fds in our kernel
		; carry their own offsets (simplified dup), so both read from 0.
		mov64 rax, SYS_read
		mov rdi, rbx
		mov64 rsi, 0x7fef0000
		mov64 rdx, 4
		syscall
		mov64 rax, SYS_read
		mov rdi, r13
		mov64 rsi, 0x7fef0010
		mov64 rdx, 4
		syscall
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/f"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != 4 {
		t.Fatalf("read via dup returned %d", task.ExitCode)
	}
}

func TestLseekGuest(t *testing.T) {
	k := New(Config{})
	if err := k.FS.WriteFile("/f", []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_open
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov rbx, rax
		; lseek(fd, -3, SEEK_END)
		mov64 rax, SYS_lseek
		mov rdi, rbx
		mov64 rsi, -3
		mov64 rdx, 2
		syscall
		cmpi rax, 7
		jnz bad
		; read the tail
		mov64 rax, SYS_read
		mov rdi, rbx
		mov64 rsi, 0x7fef0000
		mov64 rdx, 8
		syscall
		cmpi rax, 3
		jnz bad
		mov64 rbx, 0x7fef0000
		loadb rdi, [rbx]      ; '7'
		mov64 rax, SYS_exit
		syscall
	bad:
		mov64 rdi, 1
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/f"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != '7' {
		t.Errorf("exit = %d, want '7'", task.ExitCode)
	}
}

func TestGetdentsGuest(t *testing.T) {
	k := New(Config{})
	for _, p := range []string{"/d/a", "/d/b", "/d/c"} {
		if err := k.FS.MkdirAll("/d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := k.FS.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_open
		lea rdi, path
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		mov rbx, rax
		mov64 rax, SYS_getdents64
		mov rdi, rbx
		mov64 rsi, 0x7fef0000
		mov64 rdx, 512
		syscall
		mov rdi, rax         ; bytes of dirents
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/d"
		.byte 0
	`)
	mustRun(t, k)
	// Three entries, each 10 bytes header + 1 byte name.
	if task.ExitCode != 33 {
		t.Errorf("getdents returned %d bytes, want 33", task.ExitCode)
	}
}

func TestAccessAndGetcwd(t *testing.T) {
	k := New(Config{})
	if err := k.FS.WriteFile("/present", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_access
		lea rdi, yes
		mov64 rsi, 0
		syscall
		cmpi rax, 0
		jnz bad
		mov64 rax, SYS_access
		lea rdi, no
		mov64 rsi, 0
		syscall
		cmpi rax, -2        ; ENOENT
		jnz bad
		mov64 rax, SYS_getcwd
		mov64 rdi, 0x7fef0000
		mov64 rsi, 16
		syscall
		cmpi rax, 2
		jnz bad
		mov64 rbx, 0x7fef0000
		loadb rdi, [rbx]     ; '/'
		mov64 rax, SYS_exit
		syscall
	bad:
		mov64 rdi, 1
		mov64 rax, SYS_exit
		syscall
	yes:
		.ascii "/present"
		.byte 0
	no:
		.ascii "/absent"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != '/' {
		t.Errorf("exit = %d, want '/'", task.ExitCode)
	}
}

func TestArchPrctlGsRoundTrip(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		; ARCH_SET_GS(0x7fef0000)
		mov64 rax, SYS_arch_prctl
		mov64 rdi, 0x1001
		mov64 rsi, 0x7fef0000
		syscall
		; store via gs, read back via absolute address
		mov64 rcx, 77
		gsstore 16, rcx
		mov64 rbx, 0x7fef0010
		load rdi, [rbx]
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != 77 {
		t.Errorf("exit = %d, want 77 (gs addressing after arch_prctl)", task.ExitCode)
	}
}
