package kernel

import (
	"errors"
	"fmt"
	"testing"

	"lazypoline/internal/netstack"
)

// pollFunc is a netstack.Pollable whose every poll calls the function:
// ready when it returns true. Its polls are never settled, so a task
// waiting on one is polled in every round it is visited.
type pollFunc func() bool

func (f pollFunc) Poll() (netstack.Readiness, uint64, bool) {
	if f() {
		return netstack.ReadyIn, 0, false
	}
	return 0, 0, false
}

func (f pollFunc) Version() uint64 { return 0 }

// waitOn is a wait on f, for white-box scheduler-round tests.
func waitOn(f func() bool) blockedState {
	return blockedState{kind: waitPollable, obj: pollFunc(f), want: netstack.ReadyIn}
}

// blockedProbe appends a manually-constructed blocked task whose poll
// records each visit, for white-box scheduler-round tests.
func blockedProbe(k *Kernel, id int, visits *[]int, ready func() bool) *Task {
	t := &Task{ID: id, Tgid: id, state: TaskBlocked, k: k}
	t.blocked = waitOn(func() bool {
		*visits = append(*visits, id)
		if ready != nil {
			return ready()
		}
		return false
	})
	k.order = append(k.order, t)
	return t
}

// TestRoundVisitsEachTaskOnceRotated: one scheduling round visits every
// task slot exactly once, and the start slot rotates by one each round —
// the fairness contract Run and RunSlice share through scheduleRound.
func TestRoundVisitsEachTaskOnceRotated(t *testing.T) {
	k := New(Config{})
	var visits []int
	for id := 0; id < 4; id++ {
		blockedProbe(k, id, &visits, nil)
	}
	for round := 1; round <= 8; round++ {
		visits = visits[:0]
		r := k.scheduleRound()
		if !r.alive || r.progress {
			t.Fatalf("round %d: alive=%v progress=%v, want alive, no progress", round, r.alive, r.progress)
		}
		if len(visits) != 4 {
			t.Fatalf("round %d visited %d slots, want 4: %v", round, len(visits), visits)
		}
		seen := map[int]bool{}
		for _, id := range visits {
			if seen[id] {
				t.Fatalf("round %d visited task %d twice: %v", round, id, visits)
			}
			seen[id] = true
		}
		if want := round % 4; visits[0] != want {
			t.Errorf("round %d started at task %d, want %d (rotation)", round, visits[0], want)
		}
	}
}

// TestMidRoundSpawnPickedUpNextRound: a task added to k.order while a
// round is in flight is not visited by that round's snapshot, but is
// visited by the next round.
func TestMidRoundSpawnPickedUpNextRound(t *testing.T) {
	k := New(Config{})
	var visits []int
	spawned := false
	t0 := &Task{ID: 0, state: TaskBlocked, k: k}
	t0.blocked = waitOn(func() bool {
		visits = append(visits, 0)
		if !spawned {
			spawned = true
			blockedProbe(k, 1, &visits, nil)
		}
		return false
	})
	k.order = append(k.order, t0)

	k.scheduleRound()
	if len(visits) != 1 || visits[0] != 0 {
		t.Fatalf("first round visits = %v, want [0] (mid-round spawn must wait)", visits)
	}
	visits = visits[:0]
	k.scheduleRound()
	if len(visits) != 2 {
		t.Fatalf("second round visits = %v, want both tasks", visits)
	}
}

// killerGuest spins spin iterations, sends SIGTERM to task 1002, then
// exits 5.
func killerGuest(spin int) string {
	return fmt.Sprintf(`
	_start:
		mov64 rbx, 0
	spin:
		addi rbx, 1
		cmpi rbx, %d
		jnz spin
		mov64 rax, SYS_kill
		mov64 rdi, 1002
		mov64 rsi, 15        ; SIGTERM
		syscall
		mov64 rax, SYS_exit
		mov64 rdi, 5
		syscall
	`, spin)
}

// victimGuest spins forever.
const victimGuest = `
	_start:
	spin:
		jmp spin
	`

// TestCrossTaskSignalDeliveredAtRoundBarrier: kill(2) to another task
// is held until the round barrier. Task IDs are deterministic (first
// spawn = 1001, second = 1002) and each round starts one slot further
// on, so round 1 runs the victim first and round 2 the killer first.
// A 3000-iteration killer sends in round 1, after the victim's slot:
// either way the victim dies before its next quantum. A 9000-iteration
// killer sends in round 2, before the victim's slot: the victim still
// runs that slot's quantum, which puts the clock at 40000 rather than
// the 27368 immediate delivery would give.
func TestCrossTaskSignalDeliveredAtRoundBarrier(t *testing.T) {
	for _, c := range []struct {
		spin int
		now  uint64
	}{{3000, 20000}, {9000, 40000}} {
		k := New(Config{})
		killer := buildTask(t, k, killerGuest(c.spin))
		victim := buildTask(t, k, victimGuest)
		mustRun(t, k)
		if victim.ExitCode != 128+SIGTERM || killer.ExitCode != 5 {
			t.Errorf("spin %d: exits (killer %d, victim %d), want (5, %d)", c.spin, killer.ExitCode, victim.ExitCode, 128+SIGTERM)
		}
		if k.Now() != c.now {
			t.Errorf("spin %d: clock %d, want %d", c.spin, k.Now(), c.now)
		}
	}
}

// TestExitSIGCHLDPendingAfterRound: the SIGCHLD a child's exit posts to
// its parent mid-round is not pending until the round ends.
func TestExitSIGCHLDPendingAfterRound(t *testing.T) {
	k := New(Config{})
	var visits []int
	parent := blockedProbe(k, 1, &visits, nil)
	parent.Sig = &SigState{}
	child := &Task{ID: 2, Tgid: 2, state: TaskBlocked, k: k, parent: parent}
	midRound := -1
	child.blocked = waitOn(func() bool {
		k.exitTask(child, 0)
		midRound = parent.PendingSignals()
		return false
	})
	k.order = append(k.order, child)

	k.scheduleRound()
	if midRound != 0 {
		t.Errorf("parent had %d pending signals right after the child exited, want 0", midRound)
	}
	if len(parent.pending) != 1 || parent.pending[0].sig != SIGCHLD {
		t.Errorf("parent pending after the round = %+v, want one SIGCHLD", parent.pending)
	}
}

// TestCrossTaskSignalImmediateOutsideRoundOrToSelf: the barrier holds
// only cross-task posts made during a round. A post made between rounds,
// a self-post and a kernel-originated post (no sender) are queued at once.
// SIGCHLD is default-ignored, so no post wakes the blocked target.
func TestCrossTaskSignalImmediateOutsideRoundOrToSelf(t *testing.T) {
	k := New(Config{})
	var visits []int
	sender := blockedProbe(k, 1, &visits, nil)
	target := blockedProbe(k, 2, &visits, nil)
	target.Sig = &SigState{}

	k.postSignalCross(sender, target, pendingSignal{sig: SIGCHLD})
	if len(target.pending) != 1 {
		t.Fatalf("post between rounds: %d pending, want 1", len(target.pending))
	}
	target.pending = nil

	self, kern := -1, -1
	target.blocked = waitOn(func() bool {
		k.postSignalCross(target, target, pendingSignal{sig: SIGCHLD})
		self = len(target.pending)
		k.postSignalCross(nil, target, pendingSignal{sig: SIGCHLD})
		kern = len(target.pending)
		return false
	})
	k.scheduleRound()
	if self != 1 || kern != 2 {
		t.Errorf("mid-round pending after self-post %d, after kernel post %d; want 1, 2", self, kern)
	}
}

// TestDeferredSignalToMidRoundSpawnDelivered: a signal posted during a
// round to a task spawned in that same round is outside the round's
// snapshot, and is still delivered at the barrier.
func TestDeferredSignalToMidRoundSpawnDelivered(t *testing.T) {
	k := New(Config{})
	var visits []int
	var spawned *Task
	midRound := -1
	spawner := &Task{ID: 0, state: TaskBlocked, k: k}
	spawner.blocked = waitOn(func() bool {
		if spawned == nil {
			spawned = blockedProbe(k, 1, &visits, nil)
			spawned.Sig = &SigState{}
			k.postSignalCross(spawner, spawned, pendingSignal{sig: SIGTERM})
			midRound = len(spawned.pending)
		}
		return false
	})
	k.order = append(k.order, spawner)

	k.scheduleRound()
	if midRound != 0 {
		t.Errorf("spawned task had %d pending signals mid-round, want 0", midRound)
	}
	if len(spawned.pending) != 1 || spawned.pending[0].sig != SIGTERM {
		t.Errorf("spawned task pending after the round = %+v, want one SIGTERM", spawned.pending)
	}
}

// TestDeferredSignalDroppedForExitedTarget: a signal held for the barrier
// is dropped if its target exits before the round ends.
func TestDeferredSignalDroppedForExitedTarget(t *testing.T) {
	k := New(Config{})
	var visits []int
	sender := blockedProbe(k, 1, &visits, nil)
	target := blockedProbe(k, 2, &visits, nil)
	target.Sig = &SigState{}
	sender.blocked = waitOn(func() bool {
		k.postSignalCross(sender, target, pendingSignal{sig: SIGTERM})
		k.exitTask(target, 7)
		return false
	})

	k.scheduleRound()
	if target.ExitCode != 7 {
		t.Errorf("target exit %d, want 7 (its own exit, not the held SIGTERM)", target.ExitCode)
	}
	if len(target.pending) != 0 || len(target.pendingNext) != 0 {
		t.Errorf("exited target holds signals: pending %+v, held %+v", target.pending, target.pendingNext)
	}
}

// TestDeprecatedCoresIgnored: Config.Cores is an inert field. A kernel
// given any value runs the one sequential scheduler, with the same
// exits and clock, and reports no parallel rounds.
func TestDeprecatedCoresIgnored(t *testing.T) {
	for _, cores := range []int{0, 1, 4} {
		k := New(Config{Cores: cores})
		killer := buildTask(t, k, killerGuest(9000))
		victim := buildTask(t, k, victimGuest)
		mustRun(t, k)
		if victim.ExitCode != 128+SIGTERM || killer.ExitCode != 5 || k.Now() != 40000 {
			t.Errorf("cores=%d: exits (killer %d, victim %d) clock %d, want (5, %d) clock 40000",
				cores, killer.ExitCode, victim.ExitCode, k.Now(), 128+SIGTERM)
		}
		if n := k.ParallelRounds(); n != 0 {
			t.Errorf("cores=%d: ParallelRounds() = %d, want 0", cores, n)
		}
	}
}

// TestRunSliceReturnsToDriverWhenAllBlocked: an all-blocked kernel is
// not a deadlock under RunSlice. It hands control back to its driver
// with the task still alive, and once the driver makes the wait ready the
// next slice retries the blocked call. The call is an exit, so its retry
// ends the task.
func TestRunSliceReturnsToDriverWhenAllBlocked(t *testing.T) {
	k := New(Config{})
	ready := false
	tk := &Task{ID: 0, state: TaskBlocked, k: k}
	tk.blocked = waitOn(func() bool { return ready })
	tk.blocked.nr = SysExit
	k.order = append(k.order, tk)

	if !k.RunSlice(1_000) {
		t.Fatal("RunSlice reported no live task while the task was blocked")
	}
	if tk.state != TaskBlocked {
		t.Fatalf("task state %v after an all-blocked slice, want blocked", tk.state)
	}
	ready = true
	if k.RunSlice(1_000) {
		t.Fatal("RunSlice reported a live task after the blocked exit became ready")
	}
	if tk.Alive() {
		t.Fatal("task alive after its exit was retried")
	}
}

// TestRunDeadlockOnAllBlockedRound: Run has no external driver to wait
// for, so a round in which every task stays blocked ends it with
// ErrDeadlock rather than a wait or a spin to the step limit.
func TestRunDeadlockOnAllBlockedRound(t *testing.T) {
	k := New(Config{})
	var visits []int
	blockedProbe(k, 0, &visits, nil)
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("run: %v, want ErrDeadlock", err)
	}
	if len(visits) == 0 {
		t.Fatal("Run reported a deadlock without polling the blocked task")
	}
}
