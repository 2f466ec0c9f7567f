package guest

import (
	"lazypoline/internal/kernel"
	"lazypoline/internal/policy"
)

// Attack guests for the syscall-policy evaluation (DESIGN.md §6). Each
// one runs to a benign exit when the corresponding policy layer is off,
// so the policy-off invariance suite can include them, and is killed
// with 128+SIGSYS when it is on. Both are deliberately caught at a
// point every interception mechanism shares, so the violation record is
// mechanism-invariant.

// AttackJITExit is the exit code of the rogue-JIT guest when NO policy
// stops it (the mark of a successful escape).
const AttackJITExit = 42

// AttackSeqExit is the benign exit code of the sequence-violation guest
// when SFIP is off.
const AttackSeqExit = 43

// AttackJIT builds the privilege-region attack: the guest maps a fresh
// RWX page at a fixed address, emits a SYSCALL instruction into it from
// immediates (the bytes never existed at load time, exactly like the
// §V-A tcc guest), and calls it. The emitted getpid fires from a page
// that was not executable when the region set sealed — at the guest's
// first syscall, the mmap itself — so the privilege-region layer kills
// the task at the rogue site's own address under every mechanism. With
// the layer off the rogue getpid succeeds and the guest exits 42.
//
// The page is mapped MAP_FIXED at a constant address because the
// anonymous-mmap allocator's choice shifts with the mechanism's own
// attach-time mappings; a fixed address keeps the violation record
// byte-identical across all nine mechanisms.
func AttackJIT() (*Program, error) {
	src := Header + `
	_start:
		; code = mmap(0x50000000, 4096, RWX, MAP_FIXED|ANON)
		mov64 rax, SYS_mmap
		mov64 rdi, 0x50000000
		mov64 rsi, 4096
		mov64 rdx, 7
		mov64 r10, 0x30
		syscall
		cmpi rax, 0
		jl atk_fail
		mov r12, rax
		; emit "mov64 rax, 39 ; syscall ; ret" from immediates
		mov64 rdx, 0x270001
		store [r12], rdx
		mov64 rdx, 0x909090C3050F0000
		store [r12+8], rdx
		; fire the rogue syscall from the data page
		call r12
		; only reached when no policy stopped it
		mov64 rdi, 42
		mov64 rax, SYS_exit_group
		syscall

	atk_fail:
		mov64 rdi, 255
		mov64 rax, SYS_exit_group
		syscall
	`
	return BuildCached("attack-jit", src)
}

// AttackSeqProfile is the enforcement profile AttackSeq is run against:
// it tracks {write, execve}, permits the benign write loop, and has no
// write→execve edge — the program's legitimate control flow never execs.
func AttackSeqProfile() *policy.Profile {
	p := policy.NewProfile(kernel.SysWrite, kernel.SysExecve)
	p.AllowStart(kernel.SysWrite)
	p.Allow(kernel.SysWrite, kernel.SysWrite)
	return p
}

// AttackSeq builds the SFIP attack: a payload that behaves like a
// compromised write loop — from the write state it reaches straight for
// execve, a transition no benign run of the program ever exhibits. The
// AttackSeqProfile automaton has no write→execve edge, so it kills the
// task at the execve under every mechanism. With SFIP off the execve
// merely fails with -ENOENT (no such image) and the guest exits 43.
func AttackSeq() (*Program, error) {
	src := Header + `
	_start:
		; the benign phase: write(1, msg, 6) twice
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, atk_msg
		mov64 rdx, 6
		syscall
		mov64 rax, SYS_write
		mov64 rdi, 1
		lea rsi, atk_msg
		mov64 rdx, 6
		syscall
		; the hijacked phase: write state -> execve("/bin/sh")
		mov64 rax, SYS_execve
		lea rdi, atk_sh
		mov64 rsi, 0
		mov64 rdx, 0
		syscall
		; only reached when SFIP is off (the execve target is not a
		; registered image, so the call itself fails benignly)
		mov64 rdi, 43
		mov64 rax, SYS_exit_group
		syscall

	atk_msg:
		.ascii "hello\n"
	atk_sh:
		.ascii "/bin/sh"
		.byte 0
	`
	return BuildCached("attack-seq", src)
}
