package kernel

import "testing"

// Guest-chosen sizes meet stated limits (DESIGN.md §7): a file offset
// past fs.MaxFileSize and a descriptor number past MaxFDs are errors the
// guest sees, never a host allocation or a panic.

// TestHugeOffsetWriteIsEFBIG: a guest that seeks a new file to 2^62 and
// writes one byte gets EFBIG and the file stays empty; the host neither
// panics nor allocates the offset.
func TestHugeOffsetWriteIsEFBIG(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rax, SYS_open
		lea rdi, path
		mov64 rsi, 0x41      ; O_WRONLY|O_CREAT
		mov64 rdx, 0x1a4
		syscall
		cmpi rax, 0
		jl bad1
		mov rbx, rax
		mov64 rax, SYS_lseek
		mov rdi, rbx
		mov64 rsi, 0x4000000000000000
		mov64 rdx, 0         ; SEEK_SET
		syscall
		cmpi rax, 0
		jl bad2
		mov64 rax, SYS_write
		mov rdi, rbx
		lea rsi, path
		mov64 rdx, 1
		syscall
		cmpi rax, -27        ; EFBIG
		jnz bad3
		mov64 rdi, 0
		jmp out
	bad1:
		mov64 rdi, 1
		jmp out
	bad2:
		mov64 rdi, 2
		jmp out
	bad3:
		mov64 rdi, 3
	out:
		mov64 rax, SYS_exit
		syscall
	path:
		.ascii "/big"
		.byte 0
	`)
	mustRun(t, k)
	if task.ExitCode != 0 {
		t.Errorf("guest failed at step %d (1 open, 2 lseek, 3 write not EFBIG)", task.ExitCode)
	}
	if st, err := k.FS.Stat("/big"); err != nil || st.Size != 0 {
		t.Errorf("/big after the guest ran: %+v, %v; want an empty file", st, err)
	}
}

// sysRig calls syscall implementations on an idle task.
type sysRig struct {
	k    *Kernel
	task *Task
}

func (r *sysRig) call(nr int64, args ...uint64) int64 {
	var a [6]uint64
	copy(a[:], args)
	return r.k.dispatch(r.task, nr, a).ret
}

// TestLowestFreeDescriptor: a new descriptor is the lowest free number,
// 0-2 included, as on Linux: open after close(0) returns 0.
func TestLowestFreeDescriptor(t *testing.T) {
	k := New(Config{})
	if err := k.FS.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &sysRig{k: k, task: idleTask(t, k)}
	path := uint64(guestBuf)
	if err := r.task.WriteAt(path, []byte("/f\x00")); err != nil {
		t.Fatal(err)
	}
	if got := r.call(SysClose, 0); got != 0 {
		t.Fatalf("close(0) = %d", got)
	}
	if got := r.call(SysOpen, path, ORdonly); got != 0 {
		t.Errorf("open after close(0) = %d, want 0", got)
	}
	r.call(SysClose, 2)
	r.call(SysClose, 1)
	if got := r.call(SysDup, 0); got != 1 {
		t.Errorf("dup after close(1) and close(2) = %d, want 1", got)
	}
	if got := r.call(SysOpen, path, ORdonly); got != 2 {
		t.Errorf("the next open = %d, want 2", got)
	}
	if got := r.call(SysOpen, path, ORdonly); got != 3 {
		t.Errorf("an open with 0-2 taken = %d, want 3", got)
	}
}

// TestDescriptorLimit: with MaxFDs descriptors open, every call that
// needs one fails with EMFILE before it has any other effect — an
// O_CREAT open creates nothing, pipe2 installs neither end — and dup2 to
// a number at or past MaxFDs is EBADF. Closing one frees its number for
// the next call.
func TestDescriptorLimit(t *testing.T) {
	k := New(Config{})
	r := &sysRig{k: k, task: idleTask(t, k)}
	path := uint64(guestBuf)
	if err := r.task.WriteAt(path, []byte("/new\x00")); err != nil {
		t.Fatal(err)
	}
	for fd := 3; fd < MaxFDs-1; fd++ {
		if got := r.call(SysDup, 0); got != int64(fd) {
			t.Fatalf("dup = %d, want %d", got, fd)
		}
	}
	if got := r.call(SysPipe2, guestBuf+64, 0); got != -EMFILE {
		t.Errorf("pipe2 with one descriptor free = %d, want -EMFILE", got)
	}
	if got := r.call(SysDup, 0); got != MaxFDs-1 {
		t.Fatalf("the last dup = %d, want %d", got, MaxFDs-1)
	}
	for _, c := range []struct {
		name string
		nr   int64
		args []uint64
	}{
		{"dup", SysDup, []uint64{0}},
		{"open(O_CREAT)", SysOpen, []uint64{path, OWronly | OCreat, 0o644}},
		{"socket", SysSocket, []uint64{2, 1, 0}},
		{"epoll_create1", SysEpollCreate1, []uint64{0}},
		{"pipe2", SysPipe2, []uint64{guestBuf + 64, 0}},
	} {
		if got := r.call(c.nr, c.args...); got != -EMFILE {
			t.Errorf("%s with every descriptor taken = %d, want -EMFILE", c.name, got)
		}
	}
	if _, err := k.FS.Stat("/new"); err == nil {
		t.Error("an open that failed with EMFILE created its file")
	}
	for _, newfd := range []uint64{MaxFDs, MaxFDs + 1, 1 << 40, ^uint64(0)} {
		if got := r.call(SysDup2, 0, newfd); got != -EBADF {
			t.Errorf("dup2(0, %#x) = %d, want -EBADF", newfd, got)
		}
	}
	if got := r.call(SysDup2, 0, MaxFDs-1); got != MaxFDs-1 {
		t.Errorf("dup2 onto the last descriptor = %d", got)
	}
	r.call(SysClose, 700)
	if got := r.call(SysOpen, path, OWronly|OCreat, 0o644); got != 700 {
		t.Errorf("open after close(700) = %d, want 700", got)
	}
	if _, err := k.FS.Stat("/new"); err != nil {
		t.Errorf("the open that succeeded: %v", err)
	}
}
