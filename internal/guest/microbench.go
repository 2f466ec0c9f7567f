package guest

import "fmt"

// Microbench builds the Table II microbenchmark: invoke syscall number
// `nr` (the paper uses the non-existent 500) `iters` times in a tight
// loop, then exit(0). A non-existent number gives the lower bound on the
// kernel round trip, maximising the relative overhead differences — and
// number 500 enters the zpoline nop sled at its very tail, minimising
// sled cost, exactly as §V-B(a) explains.
func Microbench(nr int64, iters int64) (*Program, error) {
	src := Header + fmt.Sprintf(`
	_start:
		mov64 rcx, %d
	loop:
		push rcx
		mov64 rax, %d
		syscall
		pop rcx
		addi rcx, -1
		jnz loop
		mov64 rdi, 0
		mov64 rax, SYS_exit
		syscall
	`, iters, nr)
	return BuildCached(fmt.Sprintf("microbench-%d-x%d", nr, iters), src)
}
