package guest

import "fmt"

// MemBenchPages is the number of data pages the memory benchmark sweeps
// (the whole writable data segment).
const MemBenchPages = 16

// MemBench builds the data-path stress guest: `iters` sweeps over the
// full 16-page data segment at a 64-byte stride, each step a store
// followed by a dependent load and an accumulate — the workload the fast
// engine's software D-TLB and superblock execution exist for, and one
// that experiments.TestEngineSpeedupFloors times against the reference
// engine. The only syscall is the final exit, so the measurement isolates
// the data path from dispatch cost. The guest self-checks: the
// accumulated load sum must match the closed-form value or it exits 1, so
// a TLB serving stale or misdirected bytes fails the run rather than just
// skewing it.
func MemBench(iters int64) (*Program, error) {
	const stride = 64
	steps := int64(MemBenchPages) * 4096 / stride
	// Each sweep i (counting down from iters to 1) stores rcx=i into
	// every slot then reads it back: sum += i * steps.
	expect := uint64(0)
	for i := int64(1); i <= iters; i++ {
		expect += uint64(i) * uint64(steps)
	}
	src := Header + fmt.Sprintf(`
	.equ DATA_END %d
	_start:
		mov64 rcx, %d
	outer:
		mov64 rax, DATA
		mov64 rdx, DATA_END
	inner:
		store [rax], rcx
		load rbx, [rax]
		add rsi, rbx
		addi rax, 64
		cmp rax, rdx
		jl inner
		addi rcx, -1
		jnz outer
		mov64 rdi, %d
		cmp rsi, rdi
		jnz bad
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	bad:
		mov64 rdi, 1
		mov64 rax, SYS_exit
		syscall
	`, DataBase+int64(MemBenchPages)*4096, iters, expect)
	return BuildCached(fmt.Sprintf("membench-x%d", iters), src)
}
