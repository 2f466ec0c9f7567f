// Package otrace is request-scoped distributed tracing for the fleet
// harness, in virtual time. Where internal/telemetry answers "where do
// cycles go per dispatch path" and internal/fleet answers "what happens
// to the latency tail under failure", otrace joins the two: every
// offered request carries a deterministic trace ID derived from
// (seed, request index), the ID rides the byte streams through the
// balancer onto the backend connection (internal/netstack propagates
// it), and the kernel's dispatch-path classifier attributes per-syscall
// call/cycle records to the active request span — one span tree per
// request, from client send to the individual seccomp filter walks it
// paid for.
//
// The package follows the telemetry inertness contract (DESIGN.md §9):
// a nil *Tracer disables the plane entirely and every producer hook
// reduces to a nil check plus plain field writes, so outcomes are
// byte-identical with the plane on or off. With a tracer attached, the
// whole trace is a pure function of (config, seed): same-seed runs
// export byte-identical files.
//
// Three consumers sit on top of the raw spans:
//
//   - a tail-based sampler (this file): full span trees are retained
//     only for requests that were slow, retried, lost, or overlapped a
//     chaos/drill window — plus any request that became a histogram
//     exemplar — under a hard tree budget with drop counters, so
//     truncation is never silent;
//   - per-bucket histogram exemplars (telemetry.Histogram.ObserveEx):
//     every latency bucket remembers the trace ID of its largest
//     observation, making any BENCH percentile one lookup away from a
//     concrete tree;
//   - a virtual-time SLO burn-rate engine (slo.go).
//
// To keep the dependency graph acyclic the package imports only the
// standard library, internal/chaos (for its SplitMix64) and
// internal/telemetry; the kernel, netstack, fleet and webbench all
// import it.
package otrace

import (
	"fmt"
	"sync"

	"lazypoline/internal/chaos"
	"lazypoline/internal/telemetry"
)

// ctxAttemptBits is the width of the attempt field packed into the low
// bits of a trace context. Trace IDs keep those bits zero, so
// ctx == trace | attempt splits losslessly.
const ctxAttemptBits = 8

// maxAttempt is the largest attempt number a context can carry; later
// attempts saturate (retry budgets are single digits in practice).
const maxAttempt = 1<<ctxAttemptBits - 1

// ProbeTrace is the reserved trace ID stamped onto health-probe
// connections: probe-serving syscalls attribute here instead of
// leaking into whatever request the worker served last. No tree is
// ever opened for it, so probe spans surface only through the flight
// recorder (and the orphan counter).
const ProbeTrace = uint64(1) << ctxAttemptBits

// ID derives the deterministic trace ID for request `index` of a run
// seeded with `seed`. The low attempt bits are zero and the result is
// never 0 (0 means "no trace" everywhere in the plane) and never
// collides with ProbeTrace. It is a SplitMix64 mix, so it is a pure
// function of (seed, index).
func ID(seed uint64, index int) uint64 {
	id := chaos.Splitmix64(seed^chaos.Splitmix64(uint64(index)+1)) &^ uint64(maxAttempt)
	if id == 0 || id == ProbeTrace {
		id = 2 << ctxAttemptBits
	}
	return id
}

// Ctx packs a trace ID and a 1-based attempt number into the context
// word that travels with the request bytes.
func Ctx(trace uint64, attempt int) uint64 {
	if attempt < 1 {
		attempt = 1
	}
	if attempt > maxAttempt {
		attempt = maxAttempt
	}
	return trace | uint64(attempt)
}

// CtxTrace extracts the trace ID from a context word.
func CtxTrace(ctx uint64) uint64 { return ctx &^ uint64(maxAttempt) }

// CtxAttempt extracts the 1-based attempt number from a context word.
func CtxAttempt(ctx uint64) int { return int(ctx & maxAttempt) }

// Span kinds. Kinds name the producer layer, categories in the Chrome
// export; names within a kind describe the event.
const (
	KindRequest = "request" // root: one offered request, arrival → outcome
	KindAttempt = "attempt" // one client attempt (name "attempt" or "retry")
	KindLB      = "lb"      // balancer decisions: route, forward, eject, ...
	KindSys     = "sys"     // one syscall inside the kernel, path-attributed
	KindFlight  = "flight"  // flight-recorder dump entry
	KindDrill   = "drill"   // chaos-drill trigger points
)

// Span is one record in a request's tree (or a global event when Trace
// is 0). All fields are flat — no maps — so encoding is deterministic.
type Span struct {
	Trace uint64 // owning trace ID (0 = global event)
	Ctx   uint64 // full context (trace | attempt); 0 when not request-scoped
	Kind  string // KindRequest, KindAttempt, ...
	Name  string // syscall name, "retry", "eject", ...
	Start uint64 // virtual cycles
	Dur   uint64 // virtual cycles (0 for instants)
	Lane  int    // task ID for kernel spans, backend index for LB spans, else 0
	Path  string // dispatch path (KindSys) — the Table II attribution
	Ret   int64  // syscall return value (KindSys): negative values are -errno
	Note  string // outcome / reason ("ok", "timeout", "reset", drill name...)
}

// Outcome describes a finished request to the sampler.
type Outcome struct {
	End      uint64 // completion (or loss) time, virtual cycles
	Latency  uint64 // End - arrival for completed requests
	Attempts int    // total attempts consumed (1 = no retry)
	Lost     bool   // retry budget exhausted
	Exemplar bool   // this request became a histogram bucket exemplar
}

// Config configures the tracer. The zero value selects the defaults.
type Config struct {
	// LatencyThreshold retains any tree whose request latency is >= the
	// threshold (cycles). 0 selects DefaultLatencyThreshold.
	LatencyThreshold uint64
}

// DefaultLatencyThreshold is the default slow-request threshold in
// cycles (~1 ms at the modelled clock).
const DefaultLatencyThreshold = 2_000_000

// Memory budgets. Once maxTrees trees are retained, further retain
// decisions increment DroppedTrees; spans past maxSpansPerTree in one
// tree increment TruncatedSpans and mark the tree truncated; the flight
// recorder keeps the last flightSize kernel spans.
const (
	maxTrees        = 512
	maxSpansPerTree = 512
	flightSize      = 128
)

// Tree is one retained request's span tree.
type Tree struct {
	Trace     uint64
	Arrival   uint64
	Outcome   Outcome
	Spans     []Span // in emission order; the root KindRequest span is first
	Truncated bool   // per-tree span budget was hit
	Reason    string // why the sampler kept it ("slow", "retried", ...)
}

// Stats counts the sampler's decisions. Every dropped or truncated
// record is counted — truncation is never silent.
type Stats struct {
	Started        int    // requests opened
	Retained       int    // trees kept by the sampler
	SampledOut     int    // trees discarded by the tail-sampling predicate
	DroppedTrees   uint64 // trees that matched the predicate but hit maxTrees
	TruncatedSpans uint64 // spans discarded by per-tree caps
	OrphanSpans    uint64 // spans whose trace had no open tree
	FlightDumps    int
}

// Tracer collects spans per trace, applies tail-based sampling at
// request end, and keeps the flight-recorder ring. All methods are
// safe for concurrent use; the fleet driver is single-goroutine, so
// determinism is a property of the caller's schedule.
type Tracer struct {
	mu     sync.Mutex
	cfg    Config
	active map[uint64]*Tree
	trees  []*Tree
	events []Span // global (traceless) events: drill triggers, flight dumps
	stats  Stats

	drillStart, drillStop uint64

	flight     []Span // ring buffer of recent kernel spans
	flightNext int
	flightFull bool
}

// New returns a Tracer (zero Config = defaults).
func New(cfg Config) *Tracer {
	if cfg.LatencyThreshold == 0 {
		cfg.LatencyThreshold = DefaultLatencyThreshold
	}
	return &Tracer{cfg: cfg, active: make(map[uint64]*Tree)}
}

// SetDrillWindow tells the sampler the chaos-drill window: any request
// whose lifetime overlaps [start, stop] is retained.
func (tr *Tracer) SetDrillWindow(start, stop uint64) {
	tr.mu.Lock()
	tr.drillStart, tr.drillStop = start, stop
	tr.mu.Unlock()
}

// StartRequest opens the tree for a trace at its arrival time.
func (tr *Tracer) StartRequest(trace, arrival uint64) {
	if tr == nil || trace == 0 {
		return
	}
	tr.mu.Lock()
	if _, ok := tr.active[trace]; !ok {
		tr.active[trace] = &Tree{Trace: trace, Arrival: arrival}
		tr.stats.Started++
	}
	tr.mu.Unlock()
}

// Span appends one span to its trace's open tree (per-tree budget
// permitting), or to the global event list when s.Trace is 0.
func (tr *Tracer) Span(s Span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if s.Trace == 0 {
		tr.events = append(tr.events, s)
		return
	}
	t, ok := tr.active[s.Trace]
	if !ok {
		tr.stats.OrphanSpans++
		return
	}
	if len(t.Spans) >= maxSpansPerTree {
		t.Truncated = true
		tr.stats.TruncatedSpans++
		return
	}
	t.Spans = append(t.Spans, s)
}

// KernelSpan records one syscall span: into the owning tree (when the
// context names one) and always into the flight-recorder ring.
func (tr *Tracer) KernelSpan(s Span) {
	if tr == nil {
		return
	}
	if s.Ctx != 0 {
		s.Trace = CtxTrace(s.Ctx)
		tr.Span(s)
	}
	tr.mu.Lock()
	if len(tr.flight) < flightSize {
		tr.flight = append(tr.flight, s)
	} else {
		tr.flight[tr.flightNext] = s
		tr.flightNext = (tr.flightNext + 1) % flightSize
		tr.flightFull = true
	}
	tr.mu.Unlock()
}

// DumpFlight snapshots the flight ring (oldest first) into the global
// event list under the given reason — called on policy violations,
// guest kills, and drill triggers, so the spans leading up to the
// incident survive even if their trees are sampled out.
func (tr *Tracer) DumpFlight(reason string, now uint64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.stats.FlightDumps++
	tr.events = append(tr.events, Span{
		Kind: KindFlight, Name: "dump", Start: now, Note: reason,
	})
	emit := func(s Span) {
		s.Kind = KindFlight
		s.Note = reason
		tr.events = append(tr.events, s)
	}
	if tr.flightFull {
		for i := tr.flightNext; i < len(tr.flight); i++ {
			emit(tr.flight[i])
		}
		for i := 0; i < tr.flightNext; i++ {
			emit(tr.flight[i])
		}
	} else {
		for _, s := range tr.flight {
			emit(s)
		}
	}
}

// EndRequest closes a trace's tree and runs the tail-sampling decision:
// retain when the request was slow, retried, lost, overlapped the drill
// window, or became a histogram exemplar — within the tree budget,
// counting every drop.
func (tr *Tracer) EndRequest(trace uint64, o Outcome) {
	if tr == nil || trace == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	t, ok := tr.active[trace]
	if !ok {
		return
	}
	delete(tr.active, trace)
	if o.Latency == 0 && o.End > t.Arrival {
		// Callers that don't track per-request start times (webbench's
		// closed loop) get latency derived from the tree's arrival.
		o.Latency = o.End - t.Arrival
	}
	t.Outcome = o

	reason := ""
	switch {
	case o.Lost:
		reason = "lost"
	case o.Attempts > 1:
		reason = "retried"
	case o.Latency >= tr.cfg.LatencyThreshold:
		reason = "slow"
	case tr.drillStop > 0 && t.Arrival <= tr.drillStop && o.End >= tr.drillStart:
		reason = "drill-window"
	case o.Exemplar:
		reason = "exemplar"
	}
	if reason == "" {
		tr.stats.SampledOut++
		return
	}
	if len(tr.trees) >= maxTrees {
		tr.stats.DroppedTrees++
		return
	}
	t.Reason = reason
	// Root span first: the whole request, arrival → end.
	root := Span{
		Trace: trace, Ctx: Ctx(trace, 1), Kind: KindRequest, Name: "request",
		Start: t.Arrival, Dur: o.End - t.Arrival, Note: outcomeNote(o),
	}
	t.Spans = append([]Span{root}, t.Spans...)
	tr.trees = append(tr.trees, t)
	tr.stats.Retained++
}

func outcomeNote(o Outcome) string {
	if o.Lost {
		return "lost"
	}
	return "ok"
}

// Trees returns the retained trees in retention order.
func (tr *Tracer) Trees() []*Tree {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*Tree(nil), tr.trees...)
}

// Tree returns the retained tree for a trace ID, or nil.
func (tr *Tracer) Tree(trace uint64) *Tree {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.trees {
		if t.Trace == trace {
			return t
		}
	}
	return nil
}

// Stats returns a copy of the sampler counters.
func (tr *Tracer) Stats() Stats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.stats
}

// PIDRequests is the Chrome-trace process ID request span trees export
// under; it extends the telemetry timeline's PIDMachine/PIDScheduler
// space, so request spans nest alongside the existing tracks when both
// files load into one Perfetto session.
const PIDRequests = 3

// Export renders the retained trees plus global events as timeline
// events, deterministic for a deterministic retention order: trees in
// retention order on per-tree lanes (tid = retention index), global
// events on lane 0. Args carry the request-plane attributes, so the
// events round-trip through telemetry.DecodeTrace like any others.
func (tr *Tracer) Export() []telemetry.Event {
	tr.mu.Lock()
	trees := append([]*Tree(nil), tr.trees...)
	events := append([]Span(nil), tr.events...)
	st := tr.stats
	tr.mu.Unlock()

	var out []telemetry.Event
	out = append(out, telemetry.Event{
		Name: "process_name", Ph: "M", PID: PIDRequests,
		Args: map[string]string{"name": "requests"},
	})
	for i, t := range trees {
		lane := i + 1
		out = append(out, telemetry.Event{
			Name: "thread_name", Ph: "M", PID: PIDRequests, TID: lane,
			Args: map[string]string{"name": fmt.Sprintf("trace %016x (%s)", t.Trace, t.Reason)},
		})
		for _, s := range t.Spans {
			out = append(out, spanEvent(s, lane))
		}
	}
	for _, s := range events {
		out = append(out, spanEvent(s, 0))
	}
	out = append(out, telemetry.Event{
		Name: "otrace_stats", Ph: "i", PID: PIDRequests, TID: 0,
		Args: map[string]string{
			"started":         fmt.Sprint(st.Started),
			"retained":        fmt.Sprint(st.Retained),
			"sampled_out":     fmt.Sprint(st.SampledOut),
			"dropped_trees":   fmt.Sprint(st.DroppedTrees),
			"truncated_spans": fmt.Sprint(st.TruncatedSpans),
			"orphan_spans":    fmt.Sprint(st.OrphanSpans),
			"flight_dumps":    fmt.Sprint(st.FlightDumps),
		},
	})
	return out
}

// spanEvent renders one span as a timeline event. Chrome "X" for
// durations, "i" for instants; args carry the span fields that have no
// Chrome-native slot.
func spanEvent(s Span, lane int) telemetry.Event {
	ph := "X"
	if s.Dur == 0 {
		ph = "i"
	}
	args := map[string]string{"kind": s.Kind}
	if s.Trace != 0 {
		args["trace"] = fmt.Sprintf("%016x", s.Trace)
	}
	if s.Ctx != 0 {
		args["attempt"] = fmt.Sprint(CtxAttempt(s.Ctx))
	}
	if s.Path != "" {
		args["path"] = s.Path
		args["ret"] = fmt.Sprint(s.Ret)
	}
	if s.Lane != 0 {
		args["lane"] = fmt.Sprint(s.Lane)
	}
	if s.Note != "" {
		args["note"] = s.Note
	}
	return telemetry.Event{
		Name: s.Name, Cat: s.Kind, Ph: ph, TS: s.Start, Dur: s.Dur,
		PID: PIDRequests, TID: lane, Args: args,
	}
}
