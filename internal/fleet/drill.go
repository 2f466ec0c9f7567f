package fleet

import (
	"fmt"

	"lazypoline/internal/netstack"
	"lazypoline/internal/otrace"
)

// DrillKind names a chaos drill: a scripted mid-run failure whose
// trigger points are fractions of the nominal run duration, so the same
// drill scales with offered load and replays identically from the seed.
type DrillKind string

const (
	// DrillNone runs the farm with no injected failure (the control).
	DrillNone DrillKind = "none"
	// DrillKill SIGKILLs one backend's whole process tree at the start
	// fraction. The backend never returns: the run must converge on the
	// survivors with zero lost responses (the acceptance gate).
	DrillKill DrillKind = "kill"
	// DrillRST injects an RST storm at the start fraction: every live
	// client↔balancer session is hard-reset at once.
	DrillRST DrillKind = "rst"
	// DrillSlow degrades one backend between the start and stop
	// fractions: every segment on its connections is dropped and
	// retransmitted (a two-reader-poll hold, with later segments
	// staging cumulatively behind it), so responses crawl and health
	// probes time out until the window closes.
	DrillSlow DrillKind = "slow"
	// DrillDrain marks one backend draining at the start fraction and
	// readmits it at the stop fraction — a rolling restart. Sessions
	// close only at response boundaries, so a clean drain retries
	// nothing.
	DrillDrain DrillKind = "drain"
)

// ParseDrill validates a drill name.
func ParseDrill(s string) (DrillKind, error) {
	switch DrillKind(s) {
	case DrillNone, DrillKill, DrillRST, DrillSlow, DrillDrain:
		return DrillKind(s), nil
	}
	return "", fmt.Errorf("fleet: unknown drill %q", s)
}

// Drill scripts one failure injection.
type Drill struct {
	Kind DrillKind
	// Backend is the target backend index (kill/slow/drain).
	Backend int
}

// A drill starts and stops at these fractions of the nominal run
// duration (requests/rate).
const (
	drillStartFrac = 0.33
	drillStopFrac  = 0.66
)

// drillState is the runtime form: absolute trigger times plus fired
// flags, advanced by the driver loop each step.
type drillState struct {
	drill   Drill
	startAt uint64
	stopAt  uint64
	started bool
	stopped bool
}

func newDrillState(d Drill, base, duration uint64) *drillState {
	return &drillState{
		drill:   d,
		startAt: base + uint64(drillStartFrac*float64(duration)),
		stopAt:  base + uint64(drillStopFrac*float64(duration)),
	}
}

// step fires the drill's start/stop actions when their times arrive.
func (ds *drillState) step(now uint64, f *run) {
	if !ds.started && now >= ds.startAt {
		ds.started = true
		ds.note(f, "fire", now)
		switch ds.drill.Kind {
		case DrillKill:
			// KillTree dumps the flight ring itself, capturing the
			// spans in progress on the dying backend.
			f.k.KillTree(f.masters[ds.drill.Backend])
		case DrillRST:
			f.k.Trace().DumpFlight("drill:rst", now)
			for _, s := range f.lb.ActiveSessions() {
				s.client.InjectRST()
			}
		case DrillSlow:
			f.k.Trace().DumpFlight("drill:slow", now)
			f.faults.windowOpen = true
		case DrillDrain:
			f.k.Trace().DumpFlight("drill:drain", now)
			f.lb.SetDraining(ds.drill.Backend, true)
		}
	}
	if ds.started && !ds.stopped && now >= ds.stopAt {
		ds.stopped = true
		if ds.drill.Kind != DrillNone {
			ds.note(f, "stop", now)
		}
		switch ds.drill.Kind {
		case DrillSlow:
			f.faults.windowOpen = false
		case DrillDrain:
			f.lb.SetDraining(ds.drill.Backend, false)
		}
	}
}

// note records a drill trigger point as a global trace event.
func (ds *drillState) note(f *run, what string, now uint64) {
	if tr := f.k.Trace(); tr != nil && ds.drill.Kind != DrillNone {
		tr.Span(otrace.Span{
			Kind: otrace.KindDrill, Name: string(ds.drill.Kind) + "-" + what,
			Start: now, Note: fmt.Sprintf("backend %d", ds.drill.Backend),
		})
	}
}

// drillFaults is the fault plan for DrillSlow: while the window is open,
// every segment on the target backend's connections is dropped — staged
// for retransmit with a two-reader-poll hold, later segments queueing
// cumulatively behind it — so a multi-segment response takes several
// driver iterations instead of one. It wraps whatever plan was already
// installed (the kernel's chaos engine, or nil) and delegates every
// query to it exactly once, so enabling a drill never shifts the chaos
// streams — the same layering contract as the chaos engine itself.
//
// Plain fields are safe: the fleet driver is single-goroutine.
type drillFaults struct {
	inner       netstack.FaultPlan
	slowBackend int             // the slow drill's target backend, -1 for every other drill
	target      map[uint64]bool // conn ids dialed to slowBackend
	windowOpen  bool
}

// dialed observes every balancer→backend connection (splice or probe)
// and records the ones to the slow drill's target.
func (d *drillFaults) dialed(backend int, connID uint64) {
	if backend == d.slowBackend {
		d.target[connID] = true
	}
}

func (d *drillFaults) slow(id uint64) bool { return d.windowOpen && d.target[id] }

func (d *drillFaults) Drop(id uint64) bool {
	v := false
	if d.inner != nil {
		v = d.inner.Drop(id)
	}
	return v || d.slow(id)
}

func (d *drillFaults) Delay(id uint64) bool {
	v := false
	if d.inner != nil {
		v = d.inner.Delay(id)
	}
	return v || d.slow(id)
}

func (d *drillFaults) Reset(id uint64) bool {
	if d.inner != nil {
		return d.inner.Reset(id)
	}
	return false
}
