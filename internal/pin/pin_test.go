package pin

import (
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/loader"
)

func runAnalyzed(t *testing.T, src string) Report {
	t.Helper()
	p, err := asm.Assemble(guest.Header+src, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.FromProgram(p, "_start")
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	task, err := k.SpawnImage(img, "probe")
	if err != nil {
		t.Fatal(err)
	}
	a := Attach(task)
	if err := k.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return a.Report()
}

func TestDetectsListing1Pattern(t *testing.T) {
	// The exact Listing 1 shape: xmm0 populated, two syscalls, then read.
	r := runAnalyzed(t, `
	_start:
		mov64 r12, 0x7fef0000
		movq2x xmm0, r12
		punpck xmm0
		mov64 rax, SYS_set_tid_address
		syscall
		mov64 rax, SYS_set_robust_list
		syscall
		movups_st [r12], xmm0
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	`)
	if !r.Affected() {
		t.Fatal("Listing 1 pattern not detected")
	}
	v := r.Violations[0]
	if v.Reg != "xmm0" {
		t.Errorf("reg = %s, want xmm0", v.Reg)
	}
	if len(v.Syscalls) != 2 || v.Syscalls[0] != kernel.SysSetTidAddress || v.Syscalls[1] != kernel.SysSetRobustList {
		t.Errorf("crossed syscalls = %v", v.Syscalls)
	}
}

func TestNoFalsePositiveWhenRewrittenBeforeRead(t *testing.T) {
	// xmm0 is overwritten after the syscall and before the read: no
	// preservation expectation.
	r := runAnalyzed(t, `
	_start:
		mov64 r12, 0x7fef0000
		movq2x xmm0, r12
		mov64 rax, SYS_getpid
		syscall
		movq2x xmm0, r12      ; fresh write after the syscall
		movups_st [r12], xmm0
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	`)
	if r.Affected() {
		t.Errorf("false positive: %v", r.Violations)
	}
}

func TestNoFalsePositiveWithoutSyscallBetween(t *testing.T) {
	r := runAnalyzed(t, `
	_start:
		mov64 r12, 0x7fef0000
		movq2x xmm0, r12
		movups_st [r12], xmm0   ; read immediately, then syscalls
		mov64 rax, SYS_getpid
		syscall
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	`)
	if r.Affected() {
		t.Errorf("false positive: %v", r.Violations)
	}
}

func TestDetectsX87Pattern(t *testing.T) {
	r := runAnalyzed(t, `
	_start:
		mov64 rbx, 42
		fld rbx
		mov64 rax, SYS_getpid
		syscall
		fst rcx
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	`)
	if !r.Affected() {
		t.Fatal("x87 pattern not detected")
	}
	if r.Violations[0].Reg != "x87" {
		t.Errorf("reg = %s", r.Violations[0].Reg)
	}
}

func TestXorpsZeroIdiomIsPureWrite(t *testing.T) {
	// xorps xmm2, xmm2 after a syscall kills the live value: reading
	// afterwards is fine.
	r := runAnalyzed(t, `
	_start:
		mov64 r12, 0x7fef0000
		movq2x xmm2, r12
		mov64 rax, SYS_getpid
		syscall
		xorps xmm2, xmm2
		movups_st [r12], xmm2
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	`)
	if r.Affected() {
		t.Errorf("zeroing idiom misread as a dependent read: %v", r.Violations)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table III: on Ubuntu 20.04 exactly ls, mkdir, mv, cp are
	// affected; on Clear Linux every utility is.
	wantUbuntu := map[string]bool{
		"ls": true, "pwd": false, "chmod": false, "mkdir": true, "mv": true,
		"cp": true, "rm": false, "touch": false, "cat": false, "clear": false,
	}
	ubuntuAffected := 0
	for _, row := range rows {
		if row.UbuntuAffected != wantUbuntu[row.Util] {
			t.Errorf("Ubuntu %s: affected=%v, want %v", row.Util, row.UbuntuAffected, wantUbuntu[row.Util])
		}
		if row.UbuntuAffected {
			ubuntuAffected++
		}
		if !row.ClearAffected {
			t.Errorf("Clear Linux %s: want affected (ptmalloc_init)", row.Util)
		}
	}
	if ubuntuAffected != 4 {
		t.Errorf("Ubuntu affected count = %d, want 4 (40%%)", ubuntuAffected)
	}
	// The Ubuntu violations cross set_tid_address/set_robust_list (the
	// pthread path); the Clear Linux ones cross getrandom.
	for _, row := range rows {
		if row.UbuntuAffected {
			found := false
			for _, v := range row.UbuntuReport.Violations {
				for _, nr := range v.Syscalls {
					if nr == kernel.SysSetRobustList {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("Ubuntu %s: violation does not cross set_robust_list", row.Util)
			}
		}
		foundRandom := false
		for _, v := range row.ClearReport.Violations {
			for _, nr := range v.Syscalls {
				if nr == kernel.SysGetrandom {
					foundRandom = true
				}
			}
		}
		if !foundRandom {
			t.Errorf("Clear Linux %s: violation does not cross getrandom", row.Util)
		}
	}
}
