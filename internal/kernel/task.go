package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lazypoline/internal/bpf"
	"lazypoline/internal/cpu"
	"lazypoline/internal/fs"
	"lazypoline/internal/mem"
	"lazypoline/internal/netstack"
	"lazypoline/internal/policy"
)

// TaskState is a task's scheduler state.
type TaskState uint8

// Task states.
const (
	TaskRunnable TaskState = iota + 1
	TaskBlocked
	TaskZombie
)

func (s TaskState) String() string {
	switch s {
	case TaskRunnable:
		return "runnable"
	case TaskBlocked:
		return "blocked"
	case TaskZombie:
		return "zombie"
	}
	return "unknown"
}

// SUDConfig is a task's Syscall User Dispatch configuration, set via
// prctl(PR_SET_SYSCALL_USER_DISPATCH) — per-task, like Linux.
type SUDConfig struct {
	Enabled bool
	// SelectorAddr is the user-space address of the selector byte the
	// kernel reads on every syscall while SUD is on.
	SelectorAddr uint64
	// RangeLo/RangeLen is the always-allowed code address range; syscall
	// instructions inside it never trigger SIGSYS regardless of the
	// selector. lazypoline's selector-only deployment sets RangeLen = 0.
	RangeLo, RangeLen uint64
}

// SigAction is one registered signal handler.
type SigAction struct {
	// Handler is the handler address, or SigDfl / SigIgn.
	Handler uint64
	// Mask is the additional signal mask during the handler.
	Mask uint64
	// Flags holds sa_flags; the kernel honours SaRestart, which decides
	// whether a blocking syscall interrupted by this handler restarts
	// transparently or fails with -EINTR.
	Flags uint64
}

// SigState is the signal handler table, shared between CLONE_SIGHAND
// tasks.
type SigState struct {
	mu       sync.Mutex
	handlers [NumSignals]SigAction
}

// Get returns the action for sig.
func (s *SigState) Get(sig int) SigAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handlers[sig]
}

// Set replaces the action for sig and returns the old one.
func (s *SigState) Set(sig int, a SigAction) SigAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.handlers[sig]
	s.handlers[sig] = a
	return old
}

// clone returns a deep copy (fork without CLONE_SIGHAND).
func (s *SigState) clone() *SigState {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &SigState{}
	c.handlers = s.handlers
	return c
}

// reset restores default dispositions (execve).
func (s *SigState) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers = [NumSignals]SigAction{}
}

// pendingSignal is a queued signal.
type pendingSignal struct {
	sig  int
	code int64
	// nr / callAddr fill the SIGSYS siginfo fields.
	nr       int64
	callAddr uint64
	// force kills the task if the signal cannot be delivered to a handler
	// (Linux force_sig semantics, used by SUD and seccomp TRAP).
	force bool
}

// sigFrame is the kernel-side record of one delivered signal, matched by
// rt_sigreturn.
type sigFrame struct {
	ucAddr  uint64
	oldMask uint64
	sig     int
}

// FDKind discriminates what an fd refers to.
type FDKind uint8

// FD kinds.
const (
	FDFile FDKind = iota + 1
	FDListener
	FDSocket
	FDEpoll
	FDConsole
)

// FD is one open file description.
type FD struct {
	Kind     FDKind
	File     *fs.File
	Listener *netstack.Listener
	Sock     *netstack.Endpoint
	Epoll    *Epoll
	Nonblock bool
	Path     string

	// boundPort/bound record a bind() awaiting listen().
	boundPort uint16
	bound     bool
}

// FDTable maps descriptor numbers to open files; shared under CLONE_FILES.
type FDTable struct {
	mu   sync.Mutex
	fds  map[int]*FD
	next int
}

// NewFDTable returns a table with fds 0-2 bound to the console.
func NewFDTable() *FDTable {
	t := &FDTable{fds: make(map[int]*FD), next: 3}
	for i := 0; i < 3; i++ {
		t.fds[i] = &FD{Kind: FDConsole, Path: "console"}
	}
	return t
}

// Get looks up an fd.
func (t *FDTable) Get(fd int) (*FD, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.fds[fd]
	return f, ok
}

// Alloc installs f at the lowest free descriptor and returns it.
func (t *FDTable) Alloc(f *FD) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	fd := t.next
	for {
		if _, used := t.fds[fd]; !used {
			break
		}
		fd++
	}
	t.fds[fd] = f
	t.next = fd + 1
	return fd
}

// Install places f at a specific descriptor (dup2).
func (t *FDTable) Install(fd int, f *FD) {
	t.mu.Lock()
	t.fds[fd] = f
	t.mu.Unlock()
}

// Close removes an fd.
func (t *FDTable) Close(fd int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.fds[fd]
	if !ok {
		return false
	}
	delete(t.fds, fd)
	if fd < t.next {
		t.next = fd
		if t.next < 3 {
			t.next = 3
		}
	}
	if f.Sock != nil {
		f.Sock.Close()
	}
	if f.Listener != nil {
		f.Listener.Close()
	}
	return true
}

// CloseAll closes every descriptor, in ascending-fd order so the
// release sequence (listener unbind, socket teardown wakeups) is
// deterministic. KillTree uses it to model the Linux kernel reaping a
// SIGKILLed process's files: its listeners unbind, so later dials see
// ECONNREFUSED instead of hanging in an accept queue nobody drains.
func (t *FDTable) CloseAll() {
	t.mu.Lock()
	fds := make([]int, 0, len(t.fds))
	for fd := range t.fds {
		fds = append(fds, fd)
	}
	t.mu.Unlock()
	sort.Ints(fds)
	for _, fd := range fds {
		t.Close(fd)
	}
}

// clone duplicates the table (fork without CLONE_FILES), bumping the
// reference counts of shared socket/listener descriptions and marking
// the underlying open files, endpoints and epoll instances as crossing
// a fork boundary — the parallel scheduler serializes operations on
// shared objects (kernel/parallel.go) since parent and child may land
// on different shards.
func (t *FDTable) clone() *FDTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &FDTable{fds: make(map[int]*FD, len(t.fds)), next: t.next}
	for k, v := range t.fds {
		cp := *v
		cp.addRefs()
		if cp.File != nil {
			cp.File.MarkSharedAcrossFork()
		}
		if cp.Sock != nil {
			cp.Sock.MarkSharedAcrossFork()
		}
		if cp.Epoll != nil {
			cp.Epoll.shared.Store(true)
		}
		c.fds[k] = &cp
	}
	return c
}

// addRefs bumps the reference counts of the kernel objects this fd
// points at (called when the description is duplicated).
func (f *FD) addRefs() {
	if f.Sock != nil {
		f.Sock.AddRef()
	}
	if f.Listener != nil {
		f.Listener.AddRef()
	}
}

// Epoll is an epoll instance: a set of watched fds.
type Epoll struct {
	mu sync.Mutex
	// watches is kept in ascending fd order — the order ready events are
	// reported in, which run-to-run determinism depends on — so a poll
	// walks it as it is instead of collecting and sorting fds. Ctl
	// replaces the slice and never edits it in place: a poll takes the
	// current one under mu (snapshot) and walks it with no lock held,
	// through fd-table and endpoint locks of its own.
	watches []epollWatch
	// shared is set when the instance crosses a fork boundary (the
	// parent and child then race on the watch set from the parallel
	// scheduler's point of view — see kernel/parallel.go).
	shared atomic.Bool
}

// epollWatch is one watched fd and the events it is watched for.
type epollWatch struct {
	fd     int
	events uint32
}

// snapshot returns the watch set, ascending by fd. The slice is never
// written again; the caller may walk it without the lock.
func (e *Epoll) snapshot() []epollWatch {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.watches
}

// Epoll event bits (subset of the Linux ABI).
const (
	EpollIn  = 0x1
	EpollOut = 0x4
	EpollHup = 0x10
)

// NewEpoll returns an empty instance.
func NewEpoll() *Epoll { return &Epoll{} }

// Ctl implements EPOLL_CTL_ADD/MOD/DEL (op 1/3/2).
func (e *Epoll) Ctl(op int, fd int, events uint32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := e.watches
	i, watched := slices.BinarySearchFunc(old, fd, func(w epollWatch, fd int) int { return cmp.Compare(w.fd, fd) })
	switch op {
	case 1: // EPOLL_CTL_ADD
		if watched {
			return fmt.Errorf("epoll: fd %d already watched", fd)
		}
		next := make([]epollWatch, 0, len(old)+1)
		next = append(next, old[:i]...)
		next = append(next, epollWatch{fd: fd, events: events})
		e.watches = append(next, old[i:]...)
	case 2: // EPOLL_CTL_DEL
		if watched {
			e.watches = slices.Delete(slices.Clone(old), i, i+1)
		}
	case 3: // EPOLL_CTL_MOD
		if !watched {
			return fmt.Errorf("epoll: fd %d not watched", fd)
		}
		next := slices.Clone(old)
		next[i].events = events
		e.watches = next
	default:
		return fmt.Errorf("epoll: bad op %d", op)
	}
	return nil
}

// blockedState carries a parked task's wake-up condition and its
// continuation (typically "retry the syscall").
type blockedState struct {
	poll  func() bool
	retry func()
}

// Task is one schedulable thread of execution.
type Task struct {
	ID   int
	Tgid int
	Name string

	CPU *cpu.CPU
	AS  *mem.AddressSpace

	Files *FDTable
	Sig   *SigState

	// SigMask is the blocked-signal bitmask (bit n = signal n).
	SigMask uint64
	pending []pendingSignal
	frames  []sigFrame

	SUD     SUDConfig
	Seccomp []*bpf.Program
	tracer  *Tracer

	parent   *Task
	children []*Task

	state    TaskState
	blocked  blockedState
	ExitCode int

	// hostSyscall marks a syscall synthesised by Kernel.Syscall (an
	// interposer's Go payload): exempt from chaos fault injection so
	// mechanism-internal activity never perturbs the fault schedule.
	hostSyscall bool
	// sigInterrupted records that a signal yanked this task out of a
	// blocking syscall; delivery decides restart-vs-EINTR from the
	// handler's SaRestart flag.
	sigInterrupted bool

	// TidAddress / RobustList record set_tid_address / set_robust_list.
	TidAddress uint64
	RobustList uint64

	// ConsoleOut accumulates console writes (fd 1/2).
	ConsoleOut []byte

	// io is the staging memory behind ioBuf.
	io []byte

	// hc is the environment handleHcall hands to payloads, and stop the
	// one a tracer's callbacks get. They live in the task, filled in when
	// it is created, so that an hcall or a ptrace stop allocates nothing.
	hc   HcallCtx
	stop PtraceStop
	// locals is the storage behind Local and SetLocal.
	locals []taskLocal

	// policyRegions is the task's privileged-code-range set (nil when the
	// region layer is off); sfipLast is the SFIP automaton state (the
	// previous tracked syscall number, or policy.Start).
	policyRegions *policy.RegionSet
	sfipLast      int64
	// PolicyViolation records why the policy layer killed this task
	// ("" = it didn't). The string is mechanism-invariant: it names the
	// violated rule in application-level terms only.
	PolicyViolation string

	// Telemetry bookkeeping for the in-flight syscall (see
	// kernel/telemetry.go). Plain fields updated identically whether or
	// not a sink is attached, so they cannot perturb the run.
	telStart  uint64
	telNr     int64
	telPath   DispatchPath
	telActive bool
	telLabel  string

	// traceCtx is the request-plane trace context the task most
	// recently adopted from a socket it touched (otrace trace|attempt
	// word; 0 = none). Same plain-field discipline as the tel* fields:
	// updated identically whether or not a tracer is attached.
	traceCtx uint64

	// Parallel-round bookkeeping (kernel/parallel.go). par is non-nil
	// while the task is owned by a shard of the current round; parSlot
	// is its canonical slot in the round's rotated order; parOnFrontier
	// records that serialize() already granted it the frontier this
	// quantum; parRan/parSteps report back to the coordinator whether
	// the shard actually ran the quantum (it skips tasks a same-group
	// sibling killed) and how many steps it took; parDone is closed by
	// the shard when the slot is finished either way. Only the owning
	// shard and the coordinator (after <-parDone) touch these.
	par           *parRound
	parSlot       int
	parOnFrontier bool
	parRan        bool
	parSteps      int64
	parDone       chan struct{}
	// pendingClock accumulates virtual-clock proposals made off the
	// frontier; deferred holds order-sensitive sink emissions. Both are
	// flushed in program order when the task reaches the frontier.
	pendingClock uint64
	deferred     []func()
	// pendingNext holds cross-task signals posted to this task during
	// the current round, delivered at the round barrier in canonical
	// order (identically in both scheduler modes).
	pendingNext []pendingSignal

	k *Kernel
}

// ioBuf returns n bytes of staging memory for a syscall that moves data
// between guest memory and a file, socket or the console. It is the one
// place such memory is handed out, so these rules hold for every user:
//
//   - It belongs to the task, not the kernel: parallel rounds run tasks
//     of different share groups at the same time, and a task runs one
//     syscall at a time, so a task-local buffer needs no lock.
//   - It is allocated on a task's first transfer (a task that moves no
//     data never has one), grows to the largest transfer seen, and is
//     reused unzeroed: callers must fill every byte they pass on.
//   - It is valid until the task's next ioBuf call. No callee keeps it:
//     fs.File.Write, the ConsoleOut append, guest memory and the
//     netstack receive buffer all copy, and a segment the fault plan
//     holds back is copied into a slice of its own by Endpoint.Write.
func (t *Task) ioBuf(n int) []byte {
	if n > cap(t.io) {
		t.io = make([]byte, max(n, 2*cap(t.io)))
	}
	return t.io[:n]
}

// taskLocal is one value a mechanism keeps on a task.
type taskLocal struct{ key, val any }

// Local returns the value stored on the task under key by SetLocal, or
// nil. It is where an interposition mechanism keeps its per-task
// bookkeeping (its stack of in-flight calls): the storage is reachable
// only through the task, so it needs no lock — a task runs on one
// goroutine at a time — and it goes away with the task, however the task
// dies. A clone child starts with none. Keys are compared with ==; a
// mechanism uses its own pointer.
func (t *Task) Local(key any) any {
	for i := range t.locals {
		if t.locals[i].key == key {
			return t.locals[i].val
		}
	}
	return nil
}

// SetLocal stores val on the task under key, replacing any previous value.
func (t *Task) SetLocal(key, val any) {
	for i := range t.locals {
		if t.locals[i].key == key {
			t.locals[i].val = val
			return
		}
	}
	t.locals = append(t.locals, taskLocal{key, val})
}

// State returns the scheduler state.
func (t *Task) State() TaskState { return t.state }

// Kernel returns the owning kernel.
func (t *Task) Kernel() *Kernel { return t.k }

// Alive reports whether the task can still run.
func (t *Task) Alive() bool { return t.state == TaskRunnable || t.state == TaskBlocked }

// PendingSignals returns the number of queued signals (for tests).
func (t *Task) PendingSignals() int { return len(t.pending) }

// SyscallArgs extracts the six syscall arguments per the x86-64 ABI.
func (t *Task) SyscallArgs() [6]uint64 {
	r := &t.CPU.Regs
	return [6]uint64{r[7], r[6], r[2], r[10], r[8], r[9]} // rdi rsi rdx r10 r8 r9
}
