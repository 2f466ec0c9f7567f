package kernel

import "testing"

// errnoProbe runs one syscall with fixed args and returns rax.
func errnoProbe(t *testing.T, nr int, a0, a1, a2 int64) int {
	t.Helper()
	k := New(Config{})
	task := buildTask(t, k, buildProbe(nr, a0, a1, a2))
	mustRun(t, k)
	return task.ExitCode
}

func buildProbe(nr int, a0, a1, a2 int64) string {
	return `
	_start:
		mov64 rax, ` + itoa(nr) + `
		mov64 rdi, ` + itoa64(a0) + `
		mov64 rsi, ` + itoa64(a1) + `
		mov64 rdx, ` + itoa64(a2) + `
		syscall
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	`
}

func itoa(v int) string { return itoa64(int64(v)) }

func itoa64(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// TestErrnoMatrix sweeps common failure paths through the dispatch table.
func TestErrnoMatrix(t *testing.T) {
	tests := []struct {
		name       string
		nr         int
		a0, a1, a2 int64
		want       int
	}{
		{"read bad fd", SysRead, 99, 0x7fef0000, 8, -EBADF},
		{"write bad fd", SysWrite, 99, 0x7fef0000, 8, -EBADF},
		{"close bad fd", SysClose, 99, 0, 0, -EBADF},
		{"open bad path ptr", SysOpen, 0x1, 0, 0, -EFAULT},
		{"open null path ptr", SysOpen, 0, 0, 0, -EFAULT},
		{"fstat bad fd", SysFstat, 99, 0x7fef0000, 0, -EBADF},
		{"lseek bad fd", SysLseek, 99, 0, 0, -EBADF},
		{"mprotect unmapped", SysMprotect, 0x77770000, 4096, 3, -EINVAL},
		{"munmap unaligned", SysMunmap, 0x1001, 4096, 0, -EINVAL},
		{"sigaction bad sig", SysRtSigaction, 99, 0, 0, -EINVAL},
		{"sigaction SIGKILL", SysRtSigaction, SIGKILL, 0, 0, -EINVAL},
		{"kill no such task", SysKill, 1, SIGTERM, 0, -ESRCH},
		{"bind bad fd", SysBind, 99, 0x7fef0000, 8, -EBADF},
		{"listen unbound", SysListen, 99, 8, 0, -EBADF},
		{"accept bad fd", SysAccept, 99, 0, 0, -EBADF},
		{"epoll_ctl bad epfd", SysEpollCtl, 99, 1, 1, -EBADF},
		{"epoll_wait bad fd", SysEpollWait, 99, 0x7fef0000, 8, -EBADF},
		{"sendfile bad fds", SysSendfile, 99, 98, 0, -EBADF},
		{"prctl unknown", SysPrctl, 1, 0, 0, -EINVAL},
		{"arch_prctl unknown", SysArchPrctl, 0x9999, 0, 0, -EINVAL},
		{"seccomp from guest", SysSeccomp, 1, 0, 0, -EINVAL},
		{"enosys", NonexistentSyscall, 0, 0, 0, -ENOSYS},
		{"dup bad fd", SysDup, 99, 0, 0, -EBADF},
		{"dup2 bad fd", SysDup2, 99, 5, 0, -EBADF},
		{"getcwd tiny buf", SysGetcwd, 0x7fef0000, 1, 0, -EINVAL},
		{"unlink missing", SysUnlink, 0, 0, 0, -EFAULT},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := errnoProbe(t, tt.nr, tt.a0, tt.a1, tt.a2)
			if got != tt.want {
				t.Errorf("rax = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestSigprocmaskBadHow(t *testing.T) {
	k := New(Config{})
	task := buildTask(t, k, `
	_start:
		mov64 rbx, 0x7fef0000
		mov64 rcx, 0
		store [rbx], rcx
		mov64 rax, SYS_rt_sigprocmask
		mov64 rdi, 7          ; invalid how
		mov rsi, rbx
		mov64 rdx, 0
		syscall
		mov rdi, rax
		mov64 rax, SYS_exit
		syscall
	`)
	mustRun(t, k)
	if task.ExitCode != -EINVAL {
		t.Errorf("exit = %d, want -EINVAL", task.ExitCode)
	}
}
