// Scheduling rounds (DESIGN.md §5).
//
// A scheduling round visits every task slot of a round-start snapshot in
// rotated order, running each runnable task's quantum to completion and
// checking each blocked task's wait once. A wait whose last poll missed
// is polled again only after the version of what it waits on has moved,
// or if that poll was not settled (blockedReady). Tasks spawned
// mid-round are appended to k.order and first visited by the next round.
//
// Cross-task signals (kill/tgkill, exit-time SIGCHLD) posted during a
// round are held until the round barrier and delivered there in slot
// order. Delivering them mid-round would make the outcome depend on
// whether the target's slot came before or after the sender's; the
// barrier costs at most one round of latency, and every golden result
// embeds it.
package kernel

// roundResult is what one scheduling round reports back to Run/RunSlice.
type roundResult struct {
	alive    bool
	progress bool
	steps    int64
}

// scheduleRound runs one scheduling round — the shared core of Run and
// RunSlice. Quanta may spawn tasks (appended to k.order), so the round
// iterates a snapshot; the start index rotates each round so wakeups
// (notably accept on a shared listener) are distributed fairly across
// workers.
func (k *Kernel) scheduleRound() roundResult {
	snapshot := k.order
	k.rrOffset++
	k.inRound = true
	var r roundResult
	for i := range snapshot {
		t := snapshot[(i+k.rrOffset)%len(snapshot)]
		switch t.state {
		case TaskZombie:
			continue
		case TaskBlocked:
			r.alive = true
			if k.blockedReady(t) {
				k.retryBlocked(t)
				r.progress = true
			}
		case TaskRunnable:
			r.alive = true
			r.progress = true
			r.steps += k.runQuantum(t)
		}
	}
	k.inRound = false
	k.promoteDeferredSignals(snapshot)
	return r
}

// blockedReady reports whether t's wait is ready. A poll of an object
// that missed, and was settled, is not repeated until the object's
// version moves: until then it could only miss again, and skipping it
// skips nothing else (a poll that still ages a fault-held segment is not
// settled, so it is never skipped).
func (k *Kernel) blockedReady(t *Task) bool {
	b := &t.blocked
	switch b.kind {
	case waitPollable:
		if b.missed && b.obj.Version() == b.missVer {
			return false
		}
		r, ver, settled := b.obj.Poll()
		if r&b.want != 0 {
			return true
		}
		b.missed, b.missVer = settled, ver
	case waitEpoll:
		var one [1]epollEvent
		return len(k.epollReady(t, b.epoll, 1, one[:0])) > 0
	case waitChild:
		return t.zombieChild(int64(b.args[0])) != nil
	}
	return false
}

// ParallelRounds always returns 0.
//
// Deprecated: ignored; bench/ still names it until the benchmark re-baseline retires f5_large_cores
func (k *Kernel) ParallelRounds() uint64 { return 0 }

// postSignalCross posts a signal from one task to another. During a
// round the delivery is deferred to the round barrier (see the package
// comment); outside a round, or for self-posts, it is immediate.
func (k *Kernel) postSignalCross(from, to *Task, ps pendingSignal) {
	if k.inRound && from != nil && from != to {
		to.pendingNext = append(to.pendingNext, ps)
		k.havePendingNext = true
		return
	}
	k.postSignal(to, ps)
}

// promoteDeferredSignals is the round barrier: cross-task signals
// deferred during the round are delivered in slot order — snapshot
// slots first (rotated), then tasks spawned during the round in spawn
// order.
func (k *Kernel) promoteDeferredSignals(snapshot []*Task) {
	if !k.havePendingNext {
		return
	}
	k.havePendingNext = false
	deliver := func(t *Task) {
		if len(t.pendingNext) == 0 {
			return
		}
		sigs := t.pendingNext
		t.pendingNext = nil
		for _, ps := range sigs {
			if !t.Alive() {
				break
			}
			k.postSignal(t, ps)
		}
	}
	for i := range snapshot {
		deliver(snapshot[(i+k.rrOffset)%len(snapshot)])
	}
	for _, t := range k.order[len(snapshot):] {
		deliver(t)
	}
}
