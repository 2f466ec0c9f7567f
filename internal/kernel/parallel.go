// Parallel scheduling rounds (DESIGN.md §15).
//
// A scheduling round visits every task slot of a round-start snapshot in
// rotated ("canonical") order. The sequential scheduler simply executes
// the slots one after another. The parallel scheduler executes the same
// round as an epoch: runnable tasks are partitioned into share-groups
// (tasks that share an address space, file table, signal-handler table
// or thread group must stay mutually serial), groups are assigned to at
// most Cores shard goroutines, and each shard runs its tasks' quanta in
// canonical slot order while a coordinator walks the slots maintaining a
// *frontier*.
//
// The frontier is the determinism mechanism. A quantum may freely touch
// task-private state (its CPU, address space, file-descriptor table,
// console buffer) and commutative thread-safe state (atomic counters,
// per-task/per-connection chaos streams) at any time. Every operation
// whose effect or result depends on cross-task ordering — unsealed
// filesystem access, clone/execve/exit, signals, wait, accept while a
// listener is hot, I/O on objects shared across fork, the getrandom
// stream — first calls serialize(t), which blocks the shard until the
// frontier reaches t's slot. Because the frontier advances through slots
// in canonical order, every order-sensitive operation happens in exactly
// the sequence the sequential scheduler would have produced. Deferred
// side channels (the virtual-clock max-merge and telemetry/otrace
// emissions) accumulate per task and are flushed when the task reaches
// the frontier, so observable streams are byte-identical too.
//
// Cross-task signals are the one place where the *sequential* scheduler
// adapts to the parallel one rather than the other way around: a signal
// posted to a different task during a round (kill/tgkill, exit-time
// SIGCHLD) is deferred to the round barrier and delivered in canonical
// slot order there — in BOTH modes — because delivering it mid-round
// would expose whether the target had already executed its slot. The
// deferral is one round of latency at most and is applied identically at
// every core count, so -cores N output is byte-identical to -cores 1 by
// construction.
package kernel

import (
	"sync"
	"sync/atomic"
)

// roundResult is what one scheduling round reports back to Run/RunSlice.
type roundResult struct {
	alive    bool
	progress bool
	steps    int64
}

// parRound is the shared state of one parallel round: the frontier slot
// index, advanced monotonically by the coordinator and waited on by
// shard goroutines in serialize.
type parRound struct {
	mu       sync.Mutex
	cond     *sync.Cond
	frontier int
}

func newParRound() *parRound {
	pr := &parRound{frontier: -1}
	pr.cond = sync.NewCond(&pr.mu)
	return pr
}

// advance publishes slot as the current frontier.
func (pr *parRound) advance(slot int) {
	pr.mu.Lock()
	pr.frontier = slot
	pr.mu.Unlock()
	pr.cond.Broadcast()
}

// await blocks until the frontier has reached slot.
func (pr *parRound) await(slot int) {
	pr.mu.Lock()
	for pr.frontier < slot {
		pr.cond.Wait()
	}
	pr.mu.Unlock()
}

// scheduleRound runs one scheduling round — the shared core of Run and
// RunSlice (they had drifted into two copies of this loop; the parallel
// path must not fork a third). Quanta may spawn tasks (appended to
// k.order), so the round iterates a snapshot; the start index rotates
// each round so wakeups (notably accept on a shared listener) are
// distributed fairly across workers.
func (k *Kernel) scheduleRound() roundResult {
	snapshot := k.order
	k.rrOffset++
	k.inRound = true
	var r roundResult
	if shards := k.planShards(snapshot); shards != nil {
		r = k.runRoundParallel(snapshot, shards)
	} else {
		r = k.runRoundSequential(snapshot)
	}
	k.inRound = false
	k.promoteDeferredSignals(snapshot)
	return r
}

// runRoundSequential is the classic scheduler: visit each slot in
// rotated order and execute it to completion before the next.
func (k *Kernel) runRoundSequential(snapshot []*Task) roundResult {
	var r roundResult
	for i := range snapshot {
		t := snapshot[(i+k.rrOffset)%len(snapshot)]
		switch t.state {
		case TaskZombie:
			continue
		case TaskBlocked:
			r.alive = true
			if t.blocked.poll != nil && t.blocked.poll() {
				retry := t.blocked.retry
				t.state = TaskRunnable
				t.blocked = blockedState{}
				if retry != nil {
					retry()
				}
				r.progress = true
			}
		case TaskRunnable:
			r.alive = true
			r.progress = true
			r.steps += k.runQuantum(t)
		}
	}
	return r
}

// parallelEligible reports whether rounds may run on shards at all.
// Tracers and the dispatch observer run arbitrary host callbacks at
// arbitrary mid-quantum points, and the syscall-policy layer shares
// lazily-sealed region state across fork — all of them force the
// sequential scheduler. External waiters only exist in tests that poke
// kernel state from a second goroutine, so they stay sequential too.
func (k *Kernel) parallelEligible() bool {
	return k.cores > 1 && k.tracerCount == 0 && k.OnDispatch == nil &&
		k.policy == nil && atomic.LoadInt32(&k.extWaiters) == 0
}

// planShards partitions the snapshot's runnable tasks into share-groups
// and assigns whole groups to shard queues. It returns nil when the
// round should run sequentially (ineligible, or fewer than two groups —
// there is nothing to overlap).
//
// Two tasks must land in the same group when a quantum of one can touch
// state of the other without a serialize gate: a shared address space
// (CLONE_VM), a shared file-descriptor table (CLONE_FILES), a shared
// signal-handler table (CLONE_SIGHAND), or the same thread group
// (exit_group terminates siblings directly). Group membership is
// computed by union-find keyed on those four identities. Objects shared
// at a finer grain (an open file or connection inherited across plain
// fork) are instead marked shared at clone time and their operations
// serialize — see syscallGate.
//
// Each group goes wholly to one shard, keyed by the group's smallest
// task ID — the stable assignment the epoch design asks for — and every
// shard queue stays sorted by canonical slot, which is what makes the
// frontier protocol deadlock-free: a task can only ever wait on slots
// that are either already complete or ahead of it on its own queue.
func (k *Kernel) planShards(snapshot []*Task) [][]*Task {
	if !k.parallelEligible() {
		return nil
	}
	type member struct {
		slot int
		t    *Task
	}
	var members []member
	for i := range snapshot {
		t := snapshot[(i+k.rrOffset)%len(snapshot)]
		if t.state == TaskRunnable {
			members = append(members, member{slot: i, t: t})
		}
	}
	if len(members) < 2 {
		return nil
	}
	parent := make([]int, len(members))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	byAS := make(map[interface{}]int, len(members))
	link := func(key interface{}, i int) {
		if key == nil {
			return
		}
		if j, ok := byAS[key]; ok {
			union(i, j)
		} else {
			byAS[key] = i
		}
	}
	for i, m := range members {
		link(m.t.AS, i)
		link(m.t.Files, i)
		link(m.t.Sig, i)
		link(tgidKey(m.t.Tgid), i)
	}
	// Count groups and find each group's smallest task ID.
	minID := make(map[int]int)
	for i, m := range members {
		root := find(i)
		if id, ok := minID[root]; !ok || m.t.ID < id {
			minID[root] = m.t.ID
		}
	}
	if len(minID) < 2 {
		return nil
	}
	shardCount := k.cores
	if shardCount > len(minID) {
		shardCount = len(minID)
	}
	shards := make([][]*Task, shardCount)
	// Members are already in slot order, so appending preserves the
	// sorted-by-slot invariant per shard.
	for i, m := range members {
		sh := minID[find(i)] % shardCount
		m.t.parSlot = m.slot
		shards[sh] = append(shards[sh], m.t)
	}
	return shards
}

// tgidKey wraps a thread-group id so it can share the union-find's
// identity map with pointer keys.
type tgidKey int

// ParallelRounds reports how many scheduling rounds ran on shards —
// zero means every round fell back to the sequential scheduler (one
// core, a disqualifying attachment, or never two runnable groups).
func (k *Kernel) ParallelRounds() uint64 { return k.parRounds }

// runRoundParallel executes one epoch: launch the shard goroutines,
// then walk the slots in canonical order advancing the frontier. Shard
// tasks are awaited and their deferred effects flushed at their slot;
// blocked tasks are polled inline exactly as the sequential round does.
func (k *Kernel) runRoundParallel(snapshot []*Task, shards [][]*Task) roundResult {
	k.parRounds++
	pr := newParRound()
	k.roundListenerHot = k.Net.AnyPendingAccepts()
	for _, q := range shards {
		for _, t := range q {
			t.par = pr
			t.parOnFrontier = false
			t.parRan = false
			t.parSteps = 0
			t.parDone = make(chan struct{})
		}
	}
	var wg sync.WaitGroup
	for _, q := range shards {
		wg.Add(1)
		go func(queue []*Task) {
			defer wg.Done()
			k.runShard(queue)
		}(q)
	}
	var r roundResult
	for i := range snapshot {
		t := snapshot[(i+k.rrOffset)%len(snapshot)]
		if t.par == pr {
			// Runnable at round start: its quantum runs (or ran) on a
			// shard. Grant it the frontier, wait for completion, then
			// flush its deferred clock merge and sink emissions — this
			// is the canonical-order merge point.
			pr.advance(i)
			<-t.parDone
			k.flushDeferred(t)
			t.par = nil
			t.parOnFrontier = false
			if t.parRan {
				r.alive = true
				r.progress = true
				r.steps += t.parSteps
			}
			continue
		}
		switch t.state {
		case TaskZombie:
		case TaskBlocked:
			r.alive = true
			pr.advance(i)
			if t.blocked.poll != nil && t.blocked.poll() {
				retry := t.blocked.retry
				t.state = TaskRunnable
				t.blocked = blockedState{}
				if retry != nil {
					retry()
				}
				r.progress = true
			}
		case TaskRunnable:
			// Not shard-owned yet runnable: cannot normally happen (mid-
			// round wakeups are deferred to the barrier), but mirror the
			// sequential scheduler for robustness: run it inline at the
			// frontier.
			r.alive = true
			r.progress = true
			pr.advance(i)
			r.steps += k.runQuantum(t)
		}
	}
	pr.advance(len(snapshot))
	wg.Wait()
	k.roundListenerHot = false
	return r
}

// runShard executes one shard queue: each task's quantum in canonical
// slot order. A task killed earlier this round by a same-group sibling
// (exit_group) is skipped exactly as the sequential visit would skip a
// zombie slot.
func (k *Kernel) runShard(queue []*Task) {
	for _, t := range queue {
		if t.state == TaskRunnable {
			t.parSteps = k.runQuantum(t)
			t.parRan = true
		}
		close(t.parDone)
	}
}

// serialize blocks until t owns the round frontier, then flushes t's
// deferred effects. It is the gate every order-sensitive operation of a
// shard-run quantum passes through; once owned, the frontier stays at
// t's slot until its quantum completes, so the gate is idempotent and
// later gated operations in the same quantum run without waiting. In
// sequential rounds (and for coordinator-run retries) it is a no-op.
func (k *Kernel) serialize(t *Task) {
	if t == nil || t.par == nil || t.parOnFrontier {
		return
	}
	t.par.await(t.parSlot)
	t.parOnFrontier = true
	k.flushDeferred(t)
}

// clockPropose merges a task's cycle count into the kernel clock. The
// clock is a pure max-merge, so a shard-run quantum may accumulate its
// proposals privately and publish them at serialize points and at slot
// completion without changing the final value or any serialized Now()
// observation.
func (k *Kernel) clockPropose(t *Task, v uint64) {
	if t != nil && t.par != nil && !t.parOnFrontier {
		if v > t.pendingClock {
			t.pendingClock = v
		}
		return
	}
	if v > k.maxCycles {
		k.maxCycles = v
	}
}

// deferEmit runs fn now when ordering is already guaranteed (sequential
// round, frontier owned, host context), or queues it on the task to be
// replayed in program order when the task reaches the frontier. The
// closures capture their values at call time: only the emission into
// the shared sink is deferred, never the measurement.
func (k *Kernel) deferEmit(t *Task, fn func()) {
	if t == nil || t.par == nil || t.parOnFrontier {
		fn()
		return
	}
	t.deferred = append(t.deferred, fn)
}

// flushDeferred publishes a task's accumulated clock proposals and
// replays its deferred sink emissions in program order.
func (k *Kernel) flushDeferred(t *Task) {
	if t.pendingClock > k.maxCycles {
		k.maxCycles = t.pendingClock
	}
	t.pendingClock = 0
	if len(t.deferred) > 0 {
		for _, fn := range t.deferred {
			fn()
		}
		t.deferred = t.deferred[:0]
	}
}

// postSignalCross posts a signal from one task to another. During a
// round the delivery is deferred to the round barrier (in both
// scheduler modes — see the package comment); outside a round, or for
// self-posts, it is immediate.
func (k *Kernel) postSignalCross(from, to *Task, ps pendingSignal) {
	if k.inRound && from != nil && from != to {
		to.pendingNext = append(to.pendingNext, ps)
		k.havePendingNext = true
		return
	}
	k.postSignal(to, ps)
}

// promoteDeferredSignals is the round barrier: cross-task signals
// deferred during the round are delivered in canonical slot order —
// snapshot slots first (rotated), then tasks spawned during the round
// in spawn order.
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

// syscallGate classifies one dispatched syscall of a shard-run quantum:
// operations whose result or effect is order-sensitive serialize on the
// frontier first; everything else runs concurrently. The default for a
// case not listed here is to serialize — purity is the property that
// must be argued, not assumed. In sequential rounds the gate is two nil
// checks.
func (k *Kernel) syscallGate(t *Task, nr int64, args [6]uint64) {
	if t.par == nil || t.parOnFrontier {
		return
	}
	switch nr {
	case SysRead, SysWrite, SysSendto, SysRecvfrom:
		if k.gateIO(t, int(args[0])) {
			k.serialize(t)
		}
	case SysSendfile:
		if k.gateIO(t, int(args[0])) || k.gateIO(t, int(args[1])) {
			k.serialize(t)
		}
	case SysLseek, SysFstat:
		if k.gateIO(t, int(args[0])) {
			k.serialize(t)
		}
	case SysClose:
		if k.gateClose(t, int(args[0])) {
			k.serialize(t)
		}
	case SysOpen, SysOpenat, SysStat, SysAccess, SysGetdents64:
		// Sealed-filesystem reads are pure: no mtime/size/ino mutation
		// is possible and the guest-invisible atime update is skipped.
		if !k.FS.Sealed() {
			k.serialize(t)
		}
	case SysRename, SysMkdir, SysRmdir, SysUnlink, SysChmod, SysUtimensat:
		// When sealed these uniformly return EROFS-mapped errors without
		// reading the clock or mutating anything; unsealed they mutate
		// shared filesystem state in visit order.
		if !k.FS.Sealed() {
			k.serialize(t)
		}
	case SysAccept, SysAccept4:
		// A cold listener (empty accept queue, and no guest can fill it
		// mid-round) makes accept's EAGAIN deterministic; a hot one makes
		// dequeue order scheduling-order-sensitive.
		if k.roundListenerHot {
			k.serialize(t)
		}
	case SysEpollWait:
		if k.gateEpollWait(t, int(args[0])) {
			k.serialize(t)
		}
	case SysEpollCtl:
		if ep, ok := t.Files.Get(int(args[0])); ok && ep.Epoll != nil && ep.Epoll.shared.Load() {
			k.serialize(t)
		}
	case SysMmap, SysMprotect, SysMunmap, SysBrk,
		SysRtSigaction, SysRtSigprocmask, SysRtSigreturn,
		SysIoctl, SysSchedYield, SysFutex, SysShutdown,
		SysDup, SysDup2, SysPipe2, SysSocket, SysEpollCreate1,
		SysNanosleep, SysGetpid, SysGettid, SysGetcwd,
		SysArchPrctl, SysSetTidAddress, SysSetRobustList, SysSeccomp:
		// Task-private (or share-group-private, which the shard already
		// serialises): address space, signal tables, fd-table slots,
		// fresh pipes/sockets/epolls, pure cycle accounting.
	default:
		// clone/fork/execve/exit/exit_group/wait4/kill/tgkill/bind/
		// listen/getrandom/prctl/ptrace and anything unclassified.
		k.serialize(t)
	}
}

// gateIO reports whether I/O on fd must serialize: regular files while
// the filesystem is unsealed or when the open file (and its offset) is
// shared across a fork boundary; sockets shared across fork or whose
// peer is another guest task (pipes, guest-to-guest connections).
// Host-peered private connections are the webbench/fleet steady-state
// hot path and stay concurrent. Console I/O is per-task. A bad fd is a
// deterministic EBADF from the task's own table.
func (k *Kernel) gateIO(t *Task, fdn int) bool {
	fd, ok := t.Files.Get(fdn)
	if !ok {
		return false
	}
	switch fd.Kind {
	case FDFile:
		return !k.FS.Sealed() || (fd.File != nil && fd.File.SharedAcrossFork())
	case FDSocket:
		return fd.Sock != nil && (fd.Sock.SharedAcrossFork() || !fd.Sock.PeerIsHost())
	}
	return false
}

// gateClose reports whether close(fd) must serialize: dropping the last
// reference to a listener unbinds a port, and closing a shared or
// guest-peered connection delivers an ordering-visible EOF/HUP to a
// guest. Closing a private host-peered connection only matters to the
// host, which observes between rounds; closing a file fd touches only
// the task's own table.
func (k *Kernel) gateClose(t *Task, fdn int) bool {
	fd, ok := t.Files.Get(fdn)
	if !ok {
		return false
	}
	switch fd.Kind {
	case FDListener:
		return true
	case FDSocket:
		return fd.Sock != nil && (fd.Sock.SharedAcrossFork() || !fd.Sock.PeerIsHost())
	case FDFile:
		return false
	}
	return false
}

// gateEpollWait reports whether epoll_wait on epfd must serialize: the
// epoll instance itself is shared across fork, a watched connection is
// shared or guest-peered (its readiness can change under a concurrent
// serialized operation), or a listener is watched while hot. A cold
// watched listener is stable for the whole round and stays concurrent —
// that is the pre-forked-worker steady state.
func (k *Kernel) gateEpollWait(t *Task, fdn int) bool {
	fd, ok := t.Files.Get(fdn)
	if !ok || fd.Epoll == nil {
		return false
	}
	if fd.Epoll.shared.Load() {
		return true
	}
	for _, watch := range fd.Epoll.snapshot() {
		w, ok := t.Files.Get(watch.fd)
		if !ok {
			continue
		}
		switch w.Kind {
		case FDListener:
			if k.roundListenerHot {
				return true
			}
		case FDSocket:
			if w.Sock != nil && (w.Sock.SharedAcrossFork() || !w.Sock.PeerIsHost()) {
				return true
			}
		}
	}
	return false
}
