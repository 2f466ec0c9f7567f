package core

import (
	"testing"

	"lazypoline/internal/asm"
	"lazypoline/internal/kernel"
	"lazypoline/internal/trace"
)

// forkedWorkers forks four workers that each run the same getpid site
// three times and exit 7 from the next page; the parent reaps them and
// exits 0.
const forkedWorkers = `
_start:
	mov64 rbx, 4
spawn:
	mov64 rax, 57      ; fork
	syscall
	cmpi rax, 0
	jz worker
	addi rbx, -1
	jnz spawn
	mov64 rbx, 4
reap:
	mov64 rdi, -1
	mov64 rsi, 0
	mov64 rdx, 0
	mov64 rax, 61      ; wait4
	syscall
	addi rbx, -1
	jnz reap
	mov64 rdi, 0
	mov64 rax, 60
	syscall
worker:
	mov64 rcx, 3
loop:
	push rcx
	mov64 rax, 39      ; getpid: the site every worker rewrites
	syscall
	pop rcx
	addi rcx, -1
	jnz loop
	jmp done
.align 4096
done:                  ; on the next page, so the loop's page is rewritten once
	mov64 rdi, 7
	mov64 rax, 60
	syscall
`

// TestForkedWorkersShareRewrittenPage: workers forked before a site is
// rewritten each patch it in their own copy of the code page, with the
// mprotect RW, write, mprotect RX of §IV-A. The final mprotect seals each
// copy into one process-wide frame (DESIGN.md §4), so the rewritten page
// is decoded once per process: every worker's page is that frame, the
// block at the site is published in it, and no task decodes a block
// from a private page.
func TestForkedWorkersShareRewrittenPage(t *testing.T) {
	p, err := asm.Assemble(forkedWorkers, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	master := spawn(t, k, forkedWorkers)
	rt, err := Attach(k, master, &trace.Recorder{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, k)
	if master.ExitCode != 0 {
		t.Fatalf("master exit = %d, want 0", master.ExitCode)
	}

	loop := p.Symbols["loop"]
	var workers []*kernel.Task
	for id := master.ID; ; id++ { // task IDs are issued in order
		task, ok := k.Task(id)
		if !ok {
			break
		}
		if n := task.CPU.PrivateDecodes(); n != 0 {
			t.Errorf("task %d decoded %d blocks from private pages, want 0", id, n)
		}
		if task != master {
			workers = append(workers, task)
		}
	}
	if len(workers) != 4 {
		t.Fatalf("%d workers, want 4", len(workers))
	}
	// The master rewrote fork, wait4 and exit; each worker getpid and exit.
	if want := 3 + 2*len(workers); rt.Stats.Rewrites != want {
		t.Errorf("rewrites = %d, want %d", rt.Stats.Rewrites, want)
	}
	f, _, _ := workers[0].AS.ExecFrame(loop)
	if f == nil {
		t.Fatal("the first worker's rewritten page is not frame-backed")
	}
	if f.Decoded(loop) == nil {
		t.Error("the block at the rewritten site is not published in the page's frame")
	}
	for _, w := range workers {
		if w.ExitCode != 7 {
			t.Errorf("worker %d exit = %d, want 7", w.ID, w.ExitCode)
		}
		if g, _, _ := w.AS.ExecFrame(loop); g != f {
			t.Errorf("worker %d: the rewritten page maps frame %p, the first worker's %p", w.ID, g, f)
		}
	}
}
