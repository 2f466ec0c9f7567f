package kernel

import (
	"errors"
	"testing"

	"lazypoline/internal/netstack"
)

// forkedListener: the parent forks and parks in wait4; the child binds
// port 8080, listens, and accept-loops forever, holding every accepted
// connection open. The shape of a pre-forked server master + worker.
const forkedListener = `
_start:
	mov64 rax, SYS_fork
	syscall
	cmpi rax, 0
	jz child
	mov64 rdi, -1
	mov64 rsi, 0
	mov64 rdx, 0
	mov64 rax, SYS_wait4
	syscall
	mov64 rdi, 0
	mov64 rax, SYS_exit
	syscall
child:
	mov64 rax, SYS_socket
	mov64 rdi, 2
	mov64 rsi, 1
	syscall
	mov rbx, rax
	mov64 rax, SYS_bind
	mov rdi, rbx
	lea rsi, sa
	mov64 rdx, 8
	syscall
	mov64 rax, SYS_listen
	mov rdi, rbx
	mov64 rsi, 8
	syscall
acceptloop:
	mov64 rax, SYS_accept
	mov rdi, rbx
	mov64 rsi, 0
	mov64 rdx, 0
	syscall
	jmp acceptloop
.align 8
sa:
	.byte 2, 0, 0x1f, 0x90   ; port 8080
	.byte 0, 0, 0, 0
`

// TestKillTreeUnbindsListeners: killing a process tree must release the
// victims' file tables — the child's listener unbinds (later dials are
// refused, the crashed-backend signal the fleet health checker relies
// on) and its accepted connections die (peers see EOF).
func TestKillTreeUnbindsListeners(t *testing.T) {
	k := New(Config{})
	master := buildTask(t, k, forkedListener)

	var ep *netstack.Endpoint
	for i := 0; i < 100 && ep == nil; i++ {
		k.RunSlice(100_000)
		if e, err := k.Net.Connect(8080); err == nil {
			ep = e
		}
	}
	if ep == nil {
		t.Fatal("forked child never started listening")
	}
	k.RunSlice(200_000) // let the child accept the connection

	k.KillTree(master)
	for _, task := range k.Tasks() {
		if task.Alive() {
			t.Errorf("task %d (%s) still alive after KillTree", task.ID, task.Name)
		}
	}
	if _, err := k.Net.Connect(8080); !errors.Is(err, netstack.ErrConnRefused) {
		t.Errorf("dial after KillTree: %v, want ECONNREFUSED", err)
	}
	buf := make([]byte, 8)
	if n, err := ep.Read(buf); !(n == 0 && err == nil) &&
		!errors.Is(err, netstack.ErrClosed) && !errors.Is(err, netstack.ErrReset) {
		t.Errorf("read on connection to killed tree: %d, %v (want EOF)", n, err)
	}
	// Idempotent: a second kill of an already-dead tree is a no-op.
	k.KillTree(master)
}

// TestKillTreeSparesUnrelatedTasks: only the target tree dies.
func TestKillTreeSparesUnrelatedTasks(t *testing.T) {
	k := New(Config{})
	victim := buildTask(t, k, forkedListener)
	bystander := buildTask(t, k, `
	_start:
		mov64 rax, SYS_getpid
		syscall
		jmp _start
	`)
	for i := 0; i < 100; i++ {
		k.RunSlice(100_000)
		if _, err := k.Net.Connect(8080); err == nil {
			break
		}
	}
	k.KillTree(victim)
	if !bystander.Alive() {
		t.Error("KillTree killed an unrelated task")
	}
	if victim.Alive() {
		t.Error("KillTree target still alive")
	}
}

// TestAdvanceClockIdleTick: AdvanceClock moves virtual time without
// running any task — the open-loop driver's idle tick.
func TestAdvanceClockIdleTick(t *testing.T) {
	k := New(Config{})
	before := k.Now()
	k.AdvanceClock(12_345)
	if got := k.Now(); got != before+12_345 {
		t.Fatalf("Now() = %d after AdvanceClock, want %d", got, before+12_345)
	}
}
