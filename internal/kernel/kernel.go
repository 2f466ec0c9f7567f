package kernel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lazypoline/internal/chaos"
	"lazypoline/internal/cpu"
	"lazypoline/internal/fs"
	"lazypoline/internal/isa"
	"lazypoline/internal/loader"
	"lazypoline/internal/mem"
	"lazypoline/internal/netstack"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
)

// Errors from Run and Spawn.
var (
	ErrDeadlock  = errors.New("kernel: all tasks blocked with no external driver")
	ErrStepLimit = errors.New("kernel: step limit exceeded")
)

// HcallCtx is the environment an interposer's Go payload (reached via the
// HCALL instruction in a mechanism stub) runs in. It can read and modify
// the guest — registers, memory, syscall state — with full expressiveness,
// which is precisely what distinguishes user-space interposers from
// seccomp-bpf filters.
type HcallCtx struct {
	Task *Task
	K    *Kernel
}

// HcallHandler is a registered host callback.
type HcallHandler func(*HcallCtx) error

// Tracer is a ptrace-style tracer attached to a task. Callbacks run at
// syscall-enter and syscall-exit stops; every stop costs two context
// switches, and each Regs/Mem access made through PtraceStop costs one
// ptrace operation — the pricing that makes ptrace "Low efficiency" in
// Table I.
type Tracer struct {
	OnEnter func(stop *PtraceStop)
	OnExit  func(stop *PtraceStop)
}

// PtraceStop gives a tracer access to a stopped tracee, charging
// ptrace-op costs to the tracee's clock (the tracer serialises with it).
type PtraceStop struct {
	Task *Task
}

// GetRegs snapshots the tracee registers (one PTRACE_GETREGS).
func (s *PtraceStop) GetRegs() [isa.NumRegs]uint64 {
	s.charge()
	return s.Task.CPU.Regs
}

// SetRegs writes the tracee registers (one PTRACE_SETREGS).
func (s *PtraceStop) SetRegs(r [isa.NumRegs]uint64) {
	s.charge()
	s.Task.CPU.Regs = r
}

// PeekData reads tracee memory (one PTRACE_PEEKDATA per call).
func (s *PtraceStop) PeekData(addr uint64, p []byte) error {
	s.charge()
	return s.Task.ReadForce(addr, p)
}

// PokeData writes tracee memory (one PTRACE_POKEDATA per call).
func (s *PtraceStop) PokeData(addr uint64, p []byte) error {
	s.charge()
	return s.Task.WriteForce(addr, p)
}

func (s *PtraceStop) charge() {
	s.Task.CPU.Cycles += s.Task.k.Costs.PtraceOp
}

// Config configures a Kernel.
type Config struct {
	// Costs is the cycle cost model; zero value means DefaultCostModel.
	Costs CostModel
	// FS is the filesystem; nil creates an empty one.
	FS *fs.FS
	// Net is the network stack; nil creates an empty one.
	Net *netstack.Stack
	// RandSeed seeds the deterministic getrandom stream.
	RandSeed uint64
	// Exec selects the tasks' CPU engine: the zero value is the fast
	// engine, cpu.ExecReference the reference one. The engines are
	// semantically identical, so this only trades speed for an oracle
	// (TestExecEquivalence).
	Exec cpu.ExecMode
	// ChaosSeed / ChaosRate configure the deterministic fault-injection
	// engine (see internal/chaos). A rate of 0 constructs no engine at
	// all, so a zero-rate run is byte-identical to a chaos-disabled run:
	// every injection hook reduces to one nil comparison. The whole
	// fault schedule is reproducible from (seed, rate) alone.
	ChaosSeed uint64
	ChaosRate float64
	// Deprecated: ignored; bench/ still names it until the benchmark re-baseline retires f5_large_cores
	Cores int
	// Telemetry, if non-nil, receives metrics, timeline events and
	// profiler samples. Strictly observational: a kernel with a sink is
	// byte-identical in guest-visible behaviour — console, exit codes,
	// cycle counts, interposer traces — to one without (DESIGN.md §9).
	Telemetry *telemetry.Sink
	// Trace, if non-nil, receives request-scoped spans: every syscall
	// that retires while the task carries a trace context (stamped onto
	// its socket by the fleet/webbench request plane) is attributed to
	// the owning request's span tree with its dispatch path, and a
	// flight-recorder ring of recent spans is dumped on policy
	// violations and tree kills. Same inertness contract as Telemetry:
	// nil ⇒ the only residue is plain field writes on the task.
	Trace *otrace.Tracer
	// Policy, if non-nil, configures the syscall-policy enforcement
	// layers (privilege regions and/or SFIP; see kernel/policy.go). A
	// nil Policy — or a PolicyConfig with both layers off — charges no
	// cycles and takes no branches beyond one nil check, so policy-off
	// runs are byte-identical to a kernel without the layer
	// (TestExecEquivalence).
	Policy *PolicyConfig
}

// Kernel is the simulated operating system.
type Kernel struct {
	Costs CostModel
	FS    *fs.FS
	Net   *netstack.Stack

	tasks   map[int]*Task
	order   []*Task // scheduling order
	nextTID int

	// hcalls is the registered-callback table, indexed by HCALL id; slot
	// 0 is never issued.
	hcalls     []HcallHandler
	rrOffset   int
	images     map[string]*loader.Image
	randState  uint64
	maxCycles  uint64
	extWaiters int32
	exec       cpu.ExecMode

	// inRound is true while a scheduling round is visiting task slots.
	// Cross-task signals posted during a round are deferred to the round
	// barrier (see sched.go); havePendingNext says some are waiting.
	inRound         bool
	havePendingNext bool

	// chaos is the fault-injection engine; nil means disabled.
	chaos *chaos.Engine

	// tel is the telemetry sink (nil when disabled); quanta counts
	// completed scheduler quanta for its collector. trace is the
	// request-plane tracer (nil when disabled).
	tel    *telemetry.Sink
	trace  *otrace.Tracer
	quanta uint64

	// policy is the syscall-policy configuration (nil when disabled);
	// pstats accumulates the policy.* telemetry counters.
	policy *PolicyConfig
	pstats policyStats

	// OnDispatch, if set, observes every syscall that actually reaches
	// the dispatch table (the kernel's ground-truth trace, used by the
	// exhaustiveness evaluation).
	OnDispatch func(t *Task, nr int64, args [6]uint64)

	// ExecveHook, if set, runs after a successful execve, before the new
	// image executes. Interposition runtimes use it to re-inject
	// themselves, mirroring LD_PRELOAD-style re-injection. A non-nil
	// error is a guest-visible fault: the kernel force-delivers SIGSYS
	// to the task (an uninterposed image must not be allowed to run).
	ExecveHook func(t *Task) error

	// CloneHook, if set, runs after a new task is created by
	// clone/fork/vfork, before the child first runs. SUD has been cleared
	// in the child by then (Linux semantics), so runtimes use this to
	// re-enable interposition, as §IV-B(a) of the paper describes. A
	// non-nil error is a guest-visible fault: the child is killed with
	// SIGSYS and the clone fails in the parent with -EAGAIN.
	CloneHook func(parent, child *Task) error
}

// New creates a kernel.
func New(cfg Config) *Kernel {
	k := &Kernel{
		Costs:     cfg.Costs,
		FS:        cfg.FS,
		Net:       cfg.Net,
		tasks:     make(map[int]*Task),
		nextTID:   1000,
		images:    make(map[string]*loader.Image),
		randState: cfg.RandSeed | 1,
		exec:      cfg.Exec,
		chaos:     chaos.New(cfg.ChaosSeed, cfg.ChaosRate),
		tel:       cfg.Telemetry,
		trace:     cfg.Trace,
		policy:    cfg.Policy.normalize(),
	}
	if k.Costs == (CostModel{}) {
		k.Costs = DefaultCostModel()
	}
	if k.FS == nil {
		k.FS = fs.New(k.Now)
	}
	if k.Net == nil {
		k.Net = netstack.NewStack()
	}
	if k.chaos != nil {
		k.Net.SetFaults(chaosFaults{k.chaos})
	}
	if k.tel != nil {
		if k.tel.Metrics != nil {
			k.tel.Metrics.AddCollector(k.telCollect)
		}
		if k.tel.Timeline != nil {
			k.tel.Timeline.SetProcess(telemetry.PIDMachine, "machine")
			k.tel.Timeline.SetProcess(telemetry.PIDScheduler, "scheduler")
		}
	}
	return k
}

// Now returns the maximum cycle count across tasks — the kernel's clock.
func (k *Kernel) Now() uint64 { return k.maxCycles }

// mergeClock merges a task's cycle count into the kernel clock.
func (k *Kernel) mergeClock(v uint64) {
	if v > k.maxCycles {
		k.maxCycles = v
	}
}

// RegisterHcall installs a host callback and returns its HCALL id.
func (k *Kernel) RegisterHcall(h HcallHandler) int64 {
	if k.hcalls == nil {
		k.hcalls = make([]HcallHandler, 1, 4)
	}
	k.hcalls = append(k.hcalls, h)
	return int64(len(k.hcalls) - 1)
}

// hcall returns the callback registered under id, if any.
func (k *Kernel) hcall(id int64) (HcallHandler, bool) {
	if id <= 0 || id >= int64(len(k.hcalls)) {
		return nil, false
	}
	return k.hcalls[id], true
}

// RegisterImage makes an executable image available to execve under path.
func (k *Kernel) RegisterImage(path string, img *loader.Image) {
	k.images[path] = img
}

// AddExternalWaiter declares that an external driver (e.g. a Go-side
// load generator running concurrently with Run) may unblock tasks, so an
// all-blocked state is not a deadlock. Returns a release function.
// Drivers that interleave with RunSlice (webbench) do not need it.
func (k *Kernel) AddExternalWaiter() func() {
	atomic.AddInt32(&k.extWaiters, 1)
	return func() {
		atomic.AddInt32(&k.extWaiters, -1)
		// A parked Run must re-evaluate the deadlock condition.
		k.Net.BumpActivity()
	}
}

// SpawnOpts configures SpawnImage.
type SpawnOpts struct {
	Name      string
	StackSize uint64
	// AS, if non-nil, reuses an existing address space (the image must
	// already be loaded into it).
	AS *mem.AddressSpace
}

// DefaultStackSize is the stack mapped for new tasks.
const DefaultStackSize = 64 * mem.PageSize

// stackTop is where the main stack is mapped (grows down from here).
const stackTop = 0x7ff0_0000

// SpawnImage loads img into a fresh address space and creates a runnable
// task at its entry point.
func (k *Kernel) SpawnImage(img *loader.Image, opts SpawnOpts) (*Task, error) {
	as := opts.AS
	if as == nil {
		as = mem.NewAddressSpace()
		if err := img.Load(as); err != nil {
			return nil, err
		}
		if err := k.mapVdso(as); err != nil {
			return nil, err
		}
	}
	stackSize := opts.StackSize
	if stackSize == 0 {
		stackSize = DefaultStackSize
	}
	if err := as.MapFixed(stackTop-stackSize, stackSize, mem.ProtRW); err != nil {
		return nil, fmt.Errorf("kernel: map stack: %w", err)
	}

	t := k.newTask(opts.Name, as)
	t.CPU.RIP = img.Entry
	t.CPU.Regs[isa.RSP] = stackTop - 64 // a little headroom, 16-aligned
	k.policyRegisterImage(t, img)
	return t, nil
}

func (k *Kernel) newTask(name string, as *mem.AddressSpace) *Task {
	k.nextTID++
	t := &Task{
		ID:    k.nextTID,
		Tgid:  k.nextTID,
		Name:  name,
		AS:    as,
		Files: NewFDTable(),
		Sig:   &SigState{},
		state: TaskRunnable,
		k:     k,
	}
	t.hc, t.stop = HcallCtx{Task: t, K: k}, PtraceStop{Task: t}
	t.CPU = cpu.NewExec(as, k.exec)
	t.CPU.Costs = cpu.Costs{Insn: k.Costs.Insn, Xsave: k.Costs.Xsave, Xrstor: k.Costs.Xrstor, NopsPerCycle: k.Costs.NopsPerCycle}
	k.initTaskPolicy(t)
	k.installAllocGate(as)
	k.tasks[t.ID] = t
	k.order = append(k.order, t)
	k.telTaskStarted(t)
	return t
}

// installAllocGate wires an address space's allocation path to the
// chaos engine's SiteAllocFail stream. Host-side setup (no owning
// task) and host-synthesised syscalls (Kernel.Syscall) are exempt —
// only application-level allocations may fault, which is what keeps
// the fault schedule identical across interposition mechanisms. The
// gate is installed once per address space and outlives any one task,
// so it asks the address space which task owns the current quantum
// (runQuantum sets it) rather than capturing a task.
func (k *Kernel) installAllocGate(as *mem.AddressSpace) {
	if k.chaos == nil || as.AllocGate != nil {
		return
	}
	as.AllocGate = func(pages uint64) bool {
		t, _ := as.Owner().(*Task)
		if t == nil || t.hostSyscall {
			return true
		}
		return !k.chaos.Fire(chaos.SiteAllocFail, uint64(t.ID))
	}
}

// mapVdso installs the kernel's signal-return stub page. The stub is
//
//	mov32 rax, SYS_rt_sigreturn
//	syscall
//
// Note the SYSCALL instruction: with SUD enabled and the selector at
// BLOCK, returning from a signal handler through this stub would itself
// trigger SIGSYS. A typical SUD deployment therefore allowlists this
// page; lazypoline instead sigreturns with the selector at ALLOW.
//
// The page is one process-wide frame (vdsoFrame) mapped by reference:
// every address space shares its bytes and its decoded stub block.
func (k *Kernel) mapVdso(as *mem.AddressSpace) error {
	return as.MapFrames(VdsoBase, vdsoFrame(), mem.ProtRX)
}

// vdsoFrame is the vDSO page's one-frame mapping, built once.
var vdsoFrame = sync.OnceValue(func() []*mem.Frame {
	var e isa.Enc
	e.MovImm32(isa.RAX, SysRtSigreturn)
	e.Syscall()
	return mem.FramesOf(append(make([]byte, VdsoSigreturnOffset), e.Buf...), mem.PageSize)
})

// Task returns a task by id.
func (k *Kernel) Task(id int) (*Task, bool) {
	t, ok := k.tasks[id]
	return t, ok
}

// Tasks returns all live tasks in scheduling order.
func (k *Kernel) Tasks() []*Task {
	out := make([]*Task, 0, len(k.order))
	for _, t := range k.order {
		if t.Alive() {
			out = append(out, t)
		}
	}
	return out
}

// AttachTracer attaches a ptrace-style tracer to a task.
func (k *Kernel) AttachTracer(t *Task, tr *Tracer) { t.tracer = tr }

// DetachTracer removes the tracer.
func (k *Kernel) DetachTracer(t *Task) { t.tracer = nil }

// ConfigSUD configures Syscall User Dispatch on a task (the kernel-side
// equivalent of prctl(PR_SET_SYSCALL_USER_DISPATCH)).
func (k *Kernel) ConfigSUD(t *Task, cfg SUDConfig) error {
	if cfg.Enabled && cfg.SelectorAddr != 0 {
		var b [1]byte
		if err := t.AS.ReadForce(cfg.SelectorAddr, b[:]); err != nil {
			return fmt.Errorf("kernel: SUD selector unreadable: %w", err)
		}
	}
	t.SUD = cfg
	return nil
}

// Run executes tasks round-robin until all exit, maxSteps CPU steps have
// been executed, or a deadlock is detected. maxSteps <= 0 means no limit.
func (k *Kernel) Run(maxSteps int64) error {
	var steps int64
	for {
		// Capture the activity generation before the round: a driver
		// action between this read and a park below re-runs the round
		// instead of being lost.
		gen := k.Net.ActivityGen()
		r := k.scheduleRound()
		steps += r.steps
		if !r.alive {
			return nil
		}
		if !r.progress {
			if atomic.LoadInt32(&k.extWaiters) == 0 {
				return ErrDeadlock
			}
			// An external driver (load generator) will eventually make a
			// pollable ready; park until it touches the stack or the
			// clock rather than burning host CPU in a yield spin.
			k.Net.AwaitActivity(gen)
		}
		if maxSteps > 0 && steps >= maxSteps {
			return ErrStepLimit
		}
	}
}

// RunSlice runs up to maxSteps CPU steps of round-robin scheduling and
// returns. Unlike Run it never treats an all-blocked state as a
// deadlock: it simply returns so the caller (e.g. the load generator)
// can change external state and call it again. The return value reports
// whether any task is still alive.
func (k *Kernel) RunSlice(maxSteps int64) bool {
	var steps int64
	for {
		r := k.scheduleRound()
		steps += r.steps
		if !r.alive {
			return false
		}
		if !r.progress || steps >= maxSteps {
			return true
		}
	}
}

// KillAll force-terminates every live task (the bench harness's way of
// ending a run against servers that loop forever).
func (k *Kernel) KillAll() {
	for _, t := range k.order {
		if t.Alive() {
			k.exitTask(t, 128+SIGKILL)
		}
	}
}

// KillTree force-terminates root's entire process tree — root's thread
// group plus every descendant process — and closes each victim
// process's file table, modelling SIGKILL of a process group: the
// kernel reaps the files, so listeners unbind (later dials get
// ECONNREFUSED) and peers of open connections see EOF. Victims are
// visited in spawn order and each distinct file table is closed once,
// in ascending-fd order, so kill drills replay identically.
func (k *Kernel) KillTree(root *Task) {
	if root == nil {
		return
	}
	k.traceFlightDump(fmt.Sprintf("killtree:%s/%d", root.Name, root.ID))
	seen := make(map[*Task]bool)
	tgids := make(map[int]bool)
	var mark func(t *Task)
	mark = func(t *Task) {
		if seen[t] {
			return
		}
		seen[t] = true
		tgids[t.Tgid] = true
		for _, c := range t.children {
			mark(c)
		}
	}
	mark(root)
	closed := make(map[*FDTable]bool)
	for _, t := range k.order {
		if !tgids[t.Tgid] {
			continue
		}
		if t.Alive() {
			k.exitTask(t, 128+SIGKILL)
		}
		if t.Files != nil && !closed[t.Files] {
			closed[t.Files] = true
			t.Files.CloseAll()
		}
	}
}

// AdvanceClock advances virtual time by n cycles without running any
// task: an idle tick. Open-loop drivers need it — when every guest task
// is blocked waiting for input, RunSlice returns without moving the
// clock, and arrival-timed events (offered traffic, health probes,
// retry backoffs) would never fire. On hardware this is the interval
// timer ticking while the CPUs sit in the idle loop.
func (k *Kernel) AdvanceClock(n uint64) {
	k.maxCycles += n
	// Clock motion is externally observable progress: wake a parked Run.
	k.Net.BumpActivity()
}

// runQuantum runs one scheduling quantum of t and returns the number of
// CPU steps executed.
func (k *Kernel) runQuantum(t *Task) int64 {
	var n int64
	// Context switch: install the task's protection-key rights (PKRU is
	// per logical CPU on hardware; here, per scheduled task). The task
	// also claims its address space for the quantum — the AllocGate and
	// any host-side inspection attribute activity to it.
	t.AS.SetActivePKRU(t.CPU.PKRU)
	t.AS.SetOwner(t)
	k.checkSignals(t)
	// Scheduler-quantum jitter: the chaos engine may shorten this
	// quantum, forcing preemption at points the normal schedule never
	// exercises. Purely a timing perturbation — it cannot change what a
	// deterministic single-task guest computes, only when.
	quantum := k.Costs.SchedQuantum
	if k.chaos.Fire(chaos.SiteSchedJitter, uint64(t.ID)) {
		quantum = 1 + k.chaos.Pick(chaos.SiteSchedJitter, uint64(t.ID), quantum)
	}
	startCycles := t.CPU.Cycles
	for q := uint64(0); q < quantum && t.state == TaskRunnable; {
		// Superblock batching: hand the CPU the rest of the quantum and
		// let it retire straight-line runs without bouncing through the
		// scheduler per instruction. StepBlock stops at the first event,
		// so signal checks run at exactly the same instruction boundaries
		// as single-stepping (EvNone steps never checked signals).
		ev, steps, pre := t.CPU.StepBlock(quantum - q)
		q += steps
		n += int64(steps)
		if steps > 1 {
			// The per-Step loop refreshed the clock after every retired
			// instruction, so when an event entered the kernel the clock
			// held the count through the instruction *before* it. Replay
			// that here so Now()-derived state (file timestamps) cannot
			// depend on batching. steps==1 means no instruction retired
			// before the event in this batch — the old loop had made no
			// refresh since the previous event either.
			k.mergeClock(pre)
		}
		switch ev {
		case cpu.EvNone:
			// fall through
		case cpu.EvSyscall, cpu.EvSysenter:
			k.syscallEntry(t)
			k.checkSignals(t)
		case cpu.EvHcall:
			k.handleHcall(t)
		case cpu.EvHlt:
			k.exitTask(t, 0)
		case cpu.EvTrap:
			k.postSignal(t, pendingSignal{sig: SIGTRAP, force: true})
			k.checkSignals(t)
		case cpu.EvFault:
			// Memory faults raise SIGSEGV; undecodable instructions raise
			// SIGILL, as on Linux.
			sig := SIGILL
			var mf *mem.Fault
			if errors.As(t.CPU.FaultErr, &mf) {
				sig = SIGSEGV
			}
			k.postSignal(t, pendingSignal{sig: sig, force: true, callAddr: t.CPU.RIP})
			k.checkSignals(t)
		}
		k.mergeClock(t.CPU.Cycles)
	}
	// Quantum expiry is a context switch: the timer interrupt drains the
	// pipeline, so a half-filled NOP batch is billed here rather than
	// carried into this task's (or, via the old shared residue, another
	// task's) next run.
	t.CPU.FlushNopBatch()
	k.mergeClock(t.CPU.Cycles)
	k.quanta++
	k.telQuantum(t, startCycles)
	t.AS.SetOwner(nil)
	return n
}

// handleHcall runs a registered host callback.
func (k *Kernel) handleHcall(t *Task) {
	h, ok := k.hcall(t.CPU.HcallID)
	if !ok {
		k.postSignal(t, pendingSignal{sig: SIGILL, force: true})
		k.checkSignals(t)
		return
	}
	t.CPU.Cycles += k.Costs.HcallBody
	if err := h(&t.hc); err != nil {
		// A failing interposer payload is a guest bug: surface it like a
		// fault rather than silently continuing.
		k.postSignal(t, pendingSignal{sig: SIGABRT, force: true})
		k.checkSignals(t)
	}
}

// exitTask terminates a single task.
func (k *Kernel) exitTask(t *Task, code int) {
	if t.state == TaskZombie {
		return
	}
	t.state = TaskZombie
	t.ExitCode = code
	if t.parent != nil && t.parent.Alive() {
		k.postSignalCross(t, t.parent, pendingSignal{sig: SIGCHLD})
	}
}

// exitGroup terminates every task in t's thread group, t included.
func (k *Kernel) exitGroup(t *Task, code int) {
	for _, o := range k.order {
		if o.Tgid == t.Tgid && o.state != TaskZombie {
			k.exitTask(o, code)
		}
	}
}

// nextRand steps the deterministic getrandom stream (xorshift64).
func (k *Kernel) nextRand() uint64 {
	x := k.randState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	k.randState = x
	return x
}
