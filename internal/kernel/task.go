package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	handlers [NumSignals]SigAction
}

// Get returns the action for sig.
func (s *SigState) Get(sig int) SigAction { return s.handlers[sig] }

// Set replaces the action for sig and returns the old one.
func (s *SigState) Set(sig int, a SigAction) SigAction {
	old := s.handlers[sig]
	s.handlers[sig] = a
	return old
}

// clone returns a deep copy (fork without CLONE_SIGHAND).
func (s *SigState) clone() *SigState { return &SigState{handlers: s.handlers} }

// reset restores default dispositions (execve).
func (s *SigState) reset() { s.handlers = [NumSignals]SigAction{} }

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

	// boundPort/bound record a bind() awaiting listen().
	boundPort uint16
	bound     bool
}

// MaxFDs is RLIMIT_NOFILE, Linux's default soft limit: descriptors are
// 0 to MaxFDs-1. A call that needs a new descriptor when all are taken
// fails with EMFILE, and dup2 to a number at or past MaxFDs with EBADF.
const MaxFDs = 1024

// FDTable maps descriptor numbers to open files; shared under CLONE_FILES.
type FDTable struct {
	fds map[int]*FD
	// next is the lowest descriptor that may be free: every one below it
	// is taken.
	next int
	// ver moves whenever a descriptor number comes to name a description
	// (Alloc, Install) and when listen turns one into a listener in
	// place. An epoll watch's cached miss holds only while it stands
	// still. Close needs no move: a number that names nothing can only
	// miss.
	ver uint64
}

// NewFDTable returns a table with fds 0-2 bound to the console.
func NewFDTable() *FDTable {
	t := &FDTable{fds: make(map[int]*FD), next: 3}
	for i := 0; i < 3; i++ {
		t.fds[i] = &FD{Kind: FDConsole}
	}
	return t
}

// Get looks up an fd.
func (t *FDTable) Get(fd int) (*FD, bool) {
	f, ok := t.fds[fd]
	return f, ok
}

// Room reports whether n more descriptors can be allocated. A syscall
// checks it where Linux takes its descriptors, before it has any other
// effect, and answers EMFILE when it is false.
func (t *FDTable) Room(n int) bool { return len(t.fds)+n <= MaxFDs }

// Alloc installs f at the lowest free descriptor and returns it, or -1
// when all MaxFDs are taken (the caller checks Room first).
func (t *FDTable) Alloc(f *FD) int {
	fd := t.next
	for {
		if fd >= MaxFDs {
			return -1
		}
		if _, used := t.fds[fd]; !used {
			break
		}
		fd++
	}
	t.fds[fd] = f
	t.next = fd + 1
	t.ver++
	return fd
}

// Install places f at a specific descriptor below MaxFDs (dup2).
func (t *FDTable) Install(fd int, f *FD) {
	t.fds[fd] = f
	t.ver++
}

// Close removes an fd.
func (t *FDTable) Close(fd int) bool {
	f, ok := t.fds[fd]
	if !ok {
		return false
	}
	delete(t.fds, fd)
	if fd < t.next {
		t.next = fd
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
	fds := make([]int, 0, len(t.fds))
	for fd := range t.fds {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	for _, fd := range fds {
		t.Close(fd)
	}
}

// clone duplicates the table (fork without CLONE_FILES), bumping the
// reference counts of shared socket/listener descriptions so the last
// close, not the first, tears them down.
func (t *FDTable) clone() *FDTable {
	c := &FDTable{fds: make(map[int]*FD, len(t.fds)), next: t.next}
	for k, v := range t.fds {
		cp := *v
		cp.addRefs()
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
	// watches is kept in ascending fd order — the order ready events are
	// reported in, which run-to-run determinism depends on — so a poll
	// walks it as it is instead of collecting and sorting fds.
	watches []epollWatch
}

// epollWatch is one watched fd, the events it is watched for, and its
// last poll's miss. The miss holds while the fd table it was looked up
// in, and the object the fd named, are both at the versions it was
// recorded at: no poll could then report anything but a miss again.
type epollWatch struct {
	fd     int
	events uint32

	missFiles    *FDTable // nil: no miss cached
	missFilesVer uint64
	missObj      netstack.Pollable // nil: the fd named nothing pollable
	missObjVer   uint64
}

// missHolds reports whether w's cached miss still holds when polled
// through files, whose version is filesVer.
func (w *epollWatch) missHolds(files *FDTable, filesVer uint64) bool {
	return w.missFiles == files && w.missFilesVer == filesVer &&
		(w.missObj == nil || w.missObj.Version() == w.missObjVer)
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
	i, watched := slices.BinarySearchFunc(e.watches, fd, func(w epollWatch, fd int) int { return cmp.Compare(w.fd, fd) })
	switch op {
	case 1: // EPOLL_CTL_ADD
		if watched {
			return fmt.Errorf("epoll: fd %d already watched", fd)
		}
		e.watches = slices.Insert(e.watches, i, epollWatch{fd: fd, events: events})
	case 2: // EPOLL_CTL_DEL
		if watched {
			e.watches = slices.Delete(e.watches, i, i+1)
		}
	case 3: // EPOLL_CTL_MOD
		if !watched {
			return fmt.Errorf("epoll: fd %d not watched", fd)
		}
		e.watches[i] = epollWatch{fd: fd, events: events} // a miss under the old mask says nothing
	default:
		return fmt.Errorf("epoll: bad op %d", op)
	}
	return nil
}

// waitKind says what a blocked task waits for.
type waitKind uint8

const (
	waitNone     waitKind = iota // nothing wakes it but a signal
	waitPollable                 // obj's readiness to meet want: a socket or listener
	waitEpoll                    // an event in epoll
	waitChild                    // a child matching wait4's pid, args[0], to exit
)

// blockedState describes a parked task's wait: what it waits for, and
// the syscall (nr, args) retryBlocked runs again once that is ready.
// It is a plain value, so parking allocates nothing.
type blockedState struct {
	kind  waitKind
	obj   netstack.Pollable
	want  netstack.Readiness
	epoll *Epoll
	nr    int64
	args  [6]uint64

	// missed: obj's last poll missed and was settled, at version
	// missVer; obj is not polled again until its version moves.
	missed  bool
	missVer uint64
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

	// pendingNext holds cross-task signals posted to this task during
	// the current round, delivered at the round barrier (sched.go).
	pendingNext []pendingSignal

	k *Kernel
}

// ioBuf returns n bytes of staging memory for a syscall that moves data
// between guest memory and a file, socket or the console. It is the one
// place such memory is handed out, so these rules hold for every user:
//
//   - It belongs to the task, not the kernel: it grows only to that
//     task's largest transfer, and a task runs one syscall at a time,
//     so it needs no lock.
//   - It is allocated on a task's first transfer (a task that moves no
//     data never has one), grows to the largest transfer seen, and is
//     reused unzeroed: callers must fill every byte they pass on.
//   - It is valid until the task's next ioBuf call. No callee keeps it:
//     fs.File.Write, the ConsoleOut append and guest memory all copy.
//
// Its users are read from a socket, write to a file or the console,
// getdents64 and epoll_wait. The file and socket data paths need none
// (DESIGN.md §7): read from a file copies the inode's bytes straight
// into guest memory (fs.File.ReadTo), write to a socket reads the
// guest's buffer straight into the peer's receive buffer, and sendfile
// queues a sealed file's bytes by reference (Endpoint.WriteFrom).
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
// only through the task, and it goes away with the task, however the
// task dies. A clone child starts with none; a successful execve drops
// them all. Keys are compared with ==; a mechanism uses its own pointer.
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
