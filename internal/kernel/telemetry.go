package kernel

// Telemetry wiring. Everything here is observational: hooks read task
// state (cycles, RIP, syscall numbers) and publish into the configured
// telemetry.Sink, but never charge cycles, touch guest memory, or alter
// control flow. The telemetry variants of TestExecEquivalence in
// internal/experiments hold the kernel to that contract byte-for-byte.

import (
	"fmt"

	"lazypoline/internal/chaos"
	"lazypoline/internal/cpu"
	"lazypoline/internal/isa"
	"lazypoline/internal/mem"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
)

// DispatchPath classifies how a syscall travelled through the entry
// path of Figure 1 — the axis the paper's overhead claims live on.
type DispatchPath uint8

// Dispatch paths. The classification is decided inside syscallEntry:
// mechanism presence first (ptrace stop, seccomp filter walk), then the
// issuing address (a syscall issued from the rewritten page-zero
// trampoline is the zpoline/lazypoline fast path), then the SUD
// selector outcome.
const (
	// PathDirect: no interception engaged — the uninstrumented baseline.
	PathDirect DispatchPath = iota
	// PathTrampoline: issued from the page-zero trampoline/entry stub —
	// the rewritten zpoline / lazypoline fast path.
	PathTrampoline
	// PathSUDAllow: SUD enabled, selector read and found at ALLOW.
	PathSUDAllow
	// PathSUDRange: issued from the always-allowed SUD code range (the
	// typical-SUD handler re-issuing the intercepted call).
	PathSUDRange
	// PathSigsys: aborted by a BLOCK selector — the SUD/SIGSYS slow path.
	PathSigsys
	// PathSeccomp: passed a seccomp filter walk and dispatched.
	PathSeccomp
	// PathSeccompNotify: aborted by RET_TRAP/RET_USER_NOTIF for
	// user-space handling.
	PathSeccompNotify
	// PathPtrace: dispatched under a ptrace tracer (enter/exit stops).
	PathPtrace
	// PathHost: synthesised by host-side interposer code via
	// Kernel.Syscall (e.g. lazypoline's rewrite mprotects).
	PathHost
	// PathPolicyRegion: aborted by the privilege-region policy — the
	// issuing instruction pointer fell outside the task's sealed set.
	PathPolicyRegion
	// PathPolicySFIP: aborted by the SFIP policy — the syscall-transition
	// automaton had no edge for the attempted transition.
	PathPolicySFIP
)

func (p DispatchPath) String() string {
	switch p {
	case PathDirect:
		return "direct"
	case PathTrampoline:
		return "trampoline"
	case PathSUDAllow:
		return "sud-allow"
	case PathSUDRange:
		return "sud-range"
	case PathSigsys:
		return "sigsys"
	case PathSeccomp:
		return "seccomp"
	case PathSeccompNotify:
		return "seccomp-notify"
	case PathPtrace:
		return "ptrace"
	case PathHost:
		return "host"
	case PathPolicyRegion:
		return "policy-region"
	case PathPolicySFIP:
		return "policy-sfip"
	}
	return "unknown"
}

// DispatchPaths lists every path name, for consumers that want a stable
// iteration order over per-path metrics.
func DispatchPaths() []string {
	ps := []DispatchPath{PathDirect, PathTrampoline, PathSUDAllow, PathSUDRange,
		PathSigsys, PathSeccomp, PathSeccompNotify, PathPtrace, PathHost,
		PathPolicyRegion, PathPolicySFIP}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.String()
	}
	return names
}

// Telemetry returns the sink the kernel was built with (nil when
// telemetry is disabled). Mechanisms consult it at attach time to
// register their collectors.
func (k *Kernel) Telemetry() *telemetry.Sink { return k.tel }

// telBegin opens a latency measurement at the top of syscallEntry and
// pre-classifies the path from mechanism state and the issuing address.
// The SUD branch refines PathDirect into sud-allow/sud-range/sigsys
// once the selector outcome is known. Plain field writes — identical
// whether or not a sink is attached, so attaching one cannot perturb
// anything.
func (t *Task) telBegin(insnAddr uint64) {
	t.telStart = t.CPU.Cycles
	t.telActive = true
	switch {
	case t.hostSyscall:
		t.telPath = PathHost
	case t.tracer != nil:
		t.telPath = PathPtrace
	case len(t.Seccomp) > 0:
		t.telPath = PathSeccomp
	case insnAddr < mem.PageSize:
		// Page zero holds the zpoline trampoline / lazypoline entry stub.
		t.telPath = PathTrampoline
	default:
		t.telPath = PathDirect
	}
}

// telRefinePath upgrades the provisional classification (only a
// PathDirect placeholder is ever refined, so a trampoline-issued
// syscall under lazypoline stays attributed to the fast path).
func (t *Task) telRefinePath(p DispatchPath) {
	if t.telPath == PathDirect {
		t.telPath = p
	}
}

// telSyscallEnd closes the open measurement: per-path and per-syscall
// counters, the latency histogram, and a timeline slice spanning the
// whole kernel residence of the call. When a request tracer is
// attached, the same measurement is also emitted as a kernel span
// attributed to the task's adopted trace context — the join between
// the fleet's request lifecycle and the paper's dispatch-path
// attribution.
func (k *Kernel) telSyscallEnd(t *Task, nr int64) {
	if !t.telActive {
		return
	}
	t.telActive = false
	if k.trace == nil && k.tel == nil {
		return
	}
	delta := t.CPU.Cycles - t.telStart
	path := t.telPath.String()
	if k.trace != nil {
		k.trace.KernelSpan(otrace.Span{
			Ctx:   t.traceCtx,
			Kind:  otrace.KindSys,
			Name:  SyscallName(nr),
			Start: t.telStart,
			Dur:   delta,
			Lane:  t.ID,
			Path:  path,
			Ret:   int64(t.CPU.Regs[isa.RAX]),
		})
	}
	tel := k.tel
	if tel == nil {
		return
	}
	if m := tel.Metrics; m != nil {
		m.Counter("kernel.dispatch." + path + ".calls").Add(1)
		m.Counter("kernel.dispatch." + path + ".cycles").Add(delta)
		m.Histogram("kernel.latency." + path).Observe(delta)
		name := SyscallName(nr)
		m.Counter("kernel.syscall." + name + "." + path + ".calls").Add(1)
		m.Counter("kernel.syscall." + name + "." + path + ".cycles").Add(delta)
	}
	if tl := tel.Timeline; tl != nil {
		tl.Span(telemetry.PIDMachine, t.ID, SyscallName(nr), path, t.telStart, delta)
	}
}

// telAdoptCtx makes the task adopt the request context stamped on a
// socket it is about to read or write — from then on, syscalls the
// task retires are attributed to that request's span tree. A plain
// field write (inert without a tracer); a zero stamp is ignored so a
// task keeps its attribution across non-request syscalls like accept
// on an idle listener.
func (t *Task) telAdoptCtx(ctx uint64) {
	if ctx != 0 {
		t.traceCtx = ctx
	}
}

// TraceCtx exposes the task's adopted request context (0 = none).
func (t *Task) TraceCtx() uint64 { return t.traceCtx }

// Trace returns the request tracer the kernel was built with (nil when
// the request plane is disabled).
func (k *Kernel) Trace() *otrace.Tracer { return k.trace }

// traceFlightDump dumps the flight-recorder ring under the given
// reason (no-op without a tracer).
func (k *Kernel) traceFlightDump(reason string) {
	if k.trace != nil {
		k.trace.DumpFlight(reason, k.Now())
	}
}

// telAbort closes the measurement for a syscall that never reached the
// dispatch table (SUD BLOCK, seccomp RET_TRAP/RET_USER_NOTIF): the
// recorded latency covers the kernel entry work up to the SIGSYS post.
func (k *Kernel) telAbort(t *Task, p DispatchPath, nr int64) {
	if !t.telActive {
		return
	}
	t.telPath = p
	if k.tel != nil && k.tel.Metrics != nil {
		k.tel.Metrics.Counter("kernel.abort." + p.String()).Add(1)
	}
	k.telSyscallEnd(t, nr)
}

// telTaskStarted names the new task's timeline and profiler lanes.
func (k *Kernel) telTaskStarted(t *Task) {
	if k.tel == nil {
		return
	}
	name := t.Name
	if name == "" {
		name = "task"
	}
	t.telLabel = fmt.Sprintf("%s/%d", name, t.ID)
	if tl := k.tel.Timeline; tl != nil {
		tl.SetLane(telemetry.PIDMachine, t.ID, t.telLabel)
		tl.SetLane(telemetry.PIDScheduler, t.ID, t.telLabel)
	}
	if p := k.tel.Profiler; p != nil {
		p.SetLane(t.ID, t.telLabel)
	}
	if m := k.tel.Metrics; m != nil {
		m.Counter("kernel.tasks.spawned").Add(1)
	}
}

// telQuantum records one completed scheduler quantum: a slice in the
// scheduler process and one weighted profiler sample of the guest PC at
// the quantum boundary — the deterministic analogue of a perf tick.
func (k *Kernel) telQuantum(t *Task, startCycles uint64) {
	tel := k.tel
	if tel == nil {
		return
	}
	delta := t.CPU.Cycles - startCycles
	if delta == 0 {
		return
	}
	if p := tel.Profiler; p != nil {
		p.Sample(t.ID, t.CPU.RIP, delta)
	}
	if tl := tel.Timeline; tl != nil {
		tl.Span(telemetry.PIDScheduler, t.ID, t.telLabel, "quantum", startCycles, delta)
	}
}

// telSignalDelivered opens a signal-frame slice on the task's lane and
// counts the delivery; telSigreturn closes it.
func (k *Kernel) telSignalDelivered(t *Task, sig int) {
	tel := k.tel
	if tel == nil {
		return
	}
	if m := tel.Metrics; m != nil {
		m.Counter("kernel.signals.delivered").Add(1)
		m.Counter("kernel.signal." + SignalName(sig) + ".delivered").Add(1)
	}
	if tl := tel.Timeline; tl != nil {
		tl.Begin(telemetry.PIDMachine, t.ID, SignalName(sig), "signal", t.CPU.Cycles)
	}
}

func (k *Kernel) telSigreturn(t *Task, sig int) {
	tel := k.tel
	if tel == nil {
		return
	}
	if m := tel.Metrics; m != nil {
		m.Counter("kernel.sigreturns").Add(1)
	}
	if tl := tel.Timeline; tl != nil {
		tl.End(telemetry.PIDMachine, t.ID, SignalName(sig), "signal", t.CPU.Cycles)
	}
}

// telCollect is the kernel's registry collector: it publishes the
// always-on substrate counters (CPU decode cache and fetch behaviour,
// address-space faults and generations, netstack queues, chaos
// injections, scheduler activity) at snapshot time. Sums are order-
// independent, so iterating tasks in scheduling order and address
// spaces through a seen-set is deterministic.
func (k *Kernel) telCollect(r *telemetry.Registry) {
	var sums [len(cpuCounterNames)]uint64
	seen := make(map[*mem.AddressSpace]bool)
	var faults, gens, codeMut uint64
	for _, t := range k.order {
		for i, v := range cpuCounters(t.CPU) {
			sums[i] += v
		}
		if !seen[t.AS] {
			seen[t.AS] = true
			ms := t.AS.Stats()
			faults += ms.Faults
			gens += ms.Generations
			codeMut += ms.CodeMutations
		}
	}
	for i, name := range cpuCounterNames {
		r.Counter(name).Set(sums[i])
	}
	r.Counter("mem.page_faults").Set(faults)
	r.Counter("mem.generation_bumps").Set(gens)
	r.Counter("mem.code_mutations").Set(codeMut)
	r.Counter("sched.quanta").Set(k.quanta)

	ns := k.Net.Stats()
	r.Counter("net.conns_accepted").Set(ns.Accepted)
	r.Counter("net.backlog_drops").Set(ns.BacklogDrops)
	r.Counter("net.segs_dropped").Set(ns.SegsDropped)
	r.Counter("net.segs_delayed").Set(ns.SegsDelayed)
	r.Counter("net.resets_injected").Set(ns.Resets)
	r.Gauge("net.accept_queue_high_water").Set(int64(ns.AcceptHighWater))
	r.Gauge("net.recv_buf_high_water").Set(int64(ns.RecvHighWater))

	if k.chaos != nil {
		counts := k.chaos.FireCounts()
		for site := chaos.SiteSyscallErrno; site <= chaos.SiteSchedJitter; site++ {
			if n := counts[site]; n > 0 {
				r.Counter("chaos.injections." + chaos.SiteName(site)).Set(n)
			}
		}
	}

	// Policy counters appear only when a policy layer is configured, so
	// policy-off metric snapshots stay byte-identical to a kernel built
	// without the layer.
	if k.policy != nil {
		r.Counter("policy.region.checks").Set(k.pstats.regionChecks)
		r.Counter("policy.region.seals").Set(k.pstats.regionSeals)
		r.Counter("policy.region.violations").Set(k.pstats.regionViolations)
		r.Counter("policy.sfip.checks").Set(k.pstats.sfipChecks)
		r.Counter("policy.sfip.violations").Set(k.pstats.sfipViolations)
	}
}

// cpuCounterNames names the per-CPU counters telCollect sums over tasks,
// in cpuCounters' order.
var cpuCounterNames = [...]string{
	"cpu.decode_cache.hits", "cpu.decode_cache.misses", "cpu.decode_cache.builds",
	"cpu.decode_cache.invalidations", "cpu.decode_cache.rebind_flushes", "cpu.decode_cache.overflow_evictions",
	"cpu.chain.links", "cpu.chain.unlinks", "cpu.chain.transitions",
	"cpu.trace.fused_loop_iters", "cpu.trace.fused_nop_insts", "cpu.trace.fused_stack_insts",
	"cpu.tlb.hits", "cpu.tlb.misses", "cpu.tlb.evictions", "cpu.tlb.flushes",
	"cpu.superblock.runs", "cpu.superblock.insts",
	"cpu.fetch_walks", "cpu.nop_batches", "cpu.cycles_total",
}

// cpuCounters reads c's counters in cpuCounterNames' order.
func cpuCounters(c *cpu.CPU) [len(cpuCounterNames)]uint64 {
	cs, hs, fs, ls := c.DecodeCacheStats(), c.ChainStats(), c.FusedStats(), c.TLBStats()
	return [...]uint64{
		cs.Hits, cs.Misses, cs.Builds, cs.Invalidations, cs.RebindFlushes, cs.OverflowEvictions,
		hs.Links, hs.Unlinks, hs.Transitions,
		fs.FusedLoopIters, fs.FusedNopInsts, fs.FusedStackInsts,
		ls.Hits, ls.Misses, ls.Evictions, ls.Flushes,
		c.SuperblockRuns, c.SuperblockInsts,
		c.FetchWalks, c.NopBatches, c.Cycles,
	}
}
