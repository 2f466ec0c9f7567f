// Package fleet is the farm-scale serving harness: N guest web-server
// processes inside one kernel, fronted by a simulated L4 load balancer
// (lb.go) and driven by an open-loop, arrival-rate traffic generator
// (gen.go), with scripted chaos drills (drill.go) injected mid-run.
//
// Where webbench answers "how fast is one server under one mechanism",
// fleet answers "what happens to tail latency and request loss when a
// backend dies / resets / slows / drains under offered load" — the
// ROADMAP's fleet-scale-serving item. Everything — arrivals, health
// probes, backoffs, drill triggers — runs in virtual time keyed on
// application-level events, so a run is a pure function of
// (config, seed): byte-identical across repeats, per mechanism.
package fleet

import (
	"errors"
	"fmt"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
)

// FrontPort is the balancer's client-facing port; backends listen on
// BackendBasePort+i.
const (
	FrontPort       = 8080
	BackendBasePort = 9000
)

// The client and health-check policy, the same for every farm.
const (
	// frontBacklog is the balancer listener's accept backlog.
	frontBacklog = 1024
	// maxClientConns caps the generator's keep-alive connection pool.
	maxClientConns = 64
	// retryBudget is the per-request failure budget: a request failing
	// more times than this is lost.
	retryBudget = 8
	// backoffBase is the first retry delay in cycles; attempt n waits
	// backoffBase<<(n-1).
	backoffBase = 50_000
	// requestTimeout bounds one attempt, in cycles.
	requestTimeout = 5_000_000
	// unhealthyAfter consecutive probe failures eject a backend;
	// healthyAfter consecutive successes readmit it.
	unhealthyAfter = 2
	healthyAfter   = 2
	// sloObjective is the SLO burn-rate engine's latency objective in
	// cycles: ~1ms at the modelled clock, comfortably above a healthy
	// exchange and comfortably below a backoff-inflated retry.
	sloObjective = 2_000_000
	// sloTarget is the SLO availability goal.
	sloTarget = 0.99
)

// AttachFunc installs an interposition mechanism on a backend's master
// task before it runs (same shape as webbench.AttachFunc; declared
// structurally so fleet does not import webbench).
type AttachFunc = func(*kernel.Kernel, *kernel.Task) error

// Config parameterises one farm run.
type Config struct {
	// Backends is the number of independent server processes (each with
	// its own master + pre-forked workers) behind the balancer.
	Backends int
	// Workers is the pre-forked worker count per backend.
	Workers int
	Style   guest.ServerStyle
	// FileSize is the static file size in bytes.
	FileSize int
	// AppWorkIters overrides the per-request application work loop
	// (0 = guest default). Tests use small values to shrink runs.
	AppWorkIters int

	// Requests is the total offered request count.
	Requests int
	// Rate is the offered load in requests per Mcycle (arrivals are a
	// seeded Poisson process with mean interarrival 1e6/Rate cycles).
	Rate float64
	// Seed drives the arrival schedule.
	Seed uint64

	// Drill scripts the mid-run failure injection.
	Drill Drill

	// ProbeInterval and ProbeTimeout pace the balancer's health probes
	// and bound each probe's response time, in cycles.
	ProbeInterval uint64
	ProbeTimeout  uint64

	// Attach installs the mechanism under test on each backend's master
	// (nil = baseline).
	Attach AttachFunc
	// Costs overrides the cost model (zero value = default).
	Costs kernel.CostModel
	// ChaosSeed / ChaosRate layer the PR 3 chaos engine underneath the
	// drill (drills delegate to it, never shift its streams).
	ChaosSeed uint64
	ChaosRate float64
	// Telemetry, when non-nil, attaches a sink; fleet publishes its
	// counters into the metrics registry. Strictly observational.
	Telemetry *telemetry.Sink
	// Trace, when non-nil, collects request-scoped span trees: the
	// generator opens one per request, the LB and kernel attribute
	// their work to it, and the tracer's tail sampler decides which
	// trees survive. Same inertness contract as Telemetry.
	Trace *otrace.Tracer
}

func (cfg Config) withDefaults() Config {
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Style == 0 {
		cfg.Style = guest.StyleNginx
	}
	if cfg.FileSize <= 0 {
		cfg.FileSize = 1024
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 20
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 400_000
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 1_500_000
	}
	if cfg.Drill.Kind == "" {
		cfg.Drill.Kind = DrillNone
	}
	return cfg
}

// Result is one farm run's outcome. All latency fields are virtual
// cycles; the Pre/Mid/Post split buckets requests by arrival time
// against the drill window (Mid runs from the drill start to its stop
// plus a recovery margin), so P99Post is the "converged back" number
// the robustness gates check.
type Result struct {
	Requests  int
	Completed int
	// Lost counts requests whose retry budget was exhausted — the
	// number the kill-drill acceptance gate requires to be zero.
	Lost     int
	Retries  int
	Timeouts int
	// GenRefused counts generator dials the frontend refused;
	// LBRefused counts accepted clients dropped for want of a routable
	// backend.
	GenRefused int
	LBRefused  int
	Routed     int

	Ejections    int
	Readmissions int
	DrainClosed  int
	EjectClosed  int
	ProbesSent   int
	ProbesFailed int

	P50, P99, Max    uint64
	P50Pre, P99Pre   uint64
	P50Mid, P99Mid   uint64
	P50Post, P99Post uint64

	// SLO is the burn-rate engine's report (always computed — pure
	// host-side arithmetic over the same outcomes the percentiles use).
	SLO otrace.SLOReport
	// ExemplarBuckets is the end-to-end latency histogram's per-bucket
	// trace-ID exemplars: any percentile above maps into one of these
	// buckets, whose exemplar names a concrete request.
	ExemplarBuckets []telemetry.BucketExemplar
	// TraceStats reports the tail sampler's decisions when a tracer
	// was attached (zero value otherwise).
	TraceStats otrace.Stats
}

// run bundles the live pieces the drill state machine acts on.
type run struct {
	k       *kernel.Kernel
	masters []*kernel.Task
	lb      *LB
	faults  *drillFaults
}

// Run executes one farm configuration.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Drill.Backend < 0 || cfg.Drill.Backend >= cfg.Backends {
		return Result{}, fmt.Errorf("fleet: drill backend %d out of range (%d backends)", cfg.Drill.Backend, cfg.Backends)
	}
	respSize := guest.ResponseHeaderSize + cfg.FileSize

	k := kernel.New(kernel.Config{
		Costs:     cfg.Costs,
		ChaosSeed: cfg.ChaosSeed,
		ChaosRate: cfg.ChaosRate,
		Telemetry: cfg.Telemetry,
		Trace:     cfg.Trace,
	})
	if err := guest.InstallStatic(k.FS, cfg.FileSize); err != nil {
		return Result{}, err
	}

	masters := make([]*kernel.Task, cfg.Backends)
	ports := make([]uint16, cfg.Backends)
	for i := range masters {
		ports[i] = uint16(BackendBasePort + i)
		prog, err := guest.WebServer(guest.WebServerConfig{
			Style:        cfg.Style,
			Port:         ports[i],
			Path:         guest.StaticPath,
			Workers:      cfg.Workers,
			AppWorkIters: cfg.AppWorkIters,
		})
		if err != nil {
			return Result{}, err
		}
		master, err := prog.Spawn(k)
		if err != nil {
			return Result{}, err
		}
		if cfg.Attach != nil {
			if err := cfg.Attach(k, master); err != nil {
				return Result{}, err
			}
		}
		masters[i] = master
	}

	// Boot: run until every backend's listener answers a dial. The
	// probe connection is closed immediately; the worker that accepts
	// it sees EOF and moves on.
	booted := false
	for i := 0; i < 2000 && !booted; i++ {
		k.RunSlice(200_000)
		booted = true
		for _, p := range ports {
			ep, err := k.Net.Connect(p)
			if err != nil {
				booted = false
				break
			}
			ep.Close()
		}
	}
	if !booted {
		return Result{}, errors.New("fleet: backends did not all start listening")
	}

	// Drill fault layer: wraps the chaos plan (if any) so the slow
	// drill can target one backend's connections without shifting the
	// chaos streams. Installed before any measured connection exists,
	// so every endpoint captures it.
	faults := &drillFaults{inner: k.Net.Faults(), target: make(map[uint64]bool), slowBackend: -1}
	if cfg.Drill.Kind == DrillSlow {
		faults.slowBackend = cfg.Drill.Backend
	}
	k.Net.SetFaults(faults)

	lb, err := newLB(k.Net, ports, respSize, cfg.ProbeInterval, cfg.ProbeTimeout, faults, cfg.Trace)
	if err != nil {
		return Result{}, err
	}
	gen := newGenerator(k.Net, respSize, cfg.Requests, cfg.Rate, cfg.Seed, cfg.Trace)

	base := k.Now()
	ds := newDrillState(cfg.Drill, base, gen.duration)
	if cfg.Trace != nil && cfg.Drill.Kind != DrillNone {
		cfg.Trace.SetDrillWindow(ds.startAt, ds.stopAt)
	}

	gen.Start(base)
	r := &run{k: k, masters: masters, lb: lb, faults: faults}

	// Driver loop: drill, balancer, generator, then a kernel slice.
	// When every guest task is blocked the slice makes no progress and
	// the clock idles forward instead — open-loop time never freezes.
	// The hard stop is far beyond any legitimate tail (retry budgets
	// and timeouts bound every request's lifetime).
	hardStop := base + 100*gen.duration + 2_000_000_000
	for !gen.Done() {
		now := k.Now()
		ds.step(now, r)
		lb.Step(now)
		gen.Step(now)
		if gen.Done() {
			break
		}
		before := k.Now()
		k.RunSlice(20_000)
		if k.Now() == before {
			k.AdvanceClock(10_000)
		}
		if k.Now() > hardStop {
			return Result{}, fmt.Errorf("fleet: run stalled at %d completed + %d lost of %d",
				gen.completed, gen.lost, cfg.Requests)
		}
	}

	res := collect(cfg, gen, lb, ds)
	lb.Close()
	gen.Close()
	k.KillAll()
	k.RunSlice(1_000_000) // let the kill settle

	if cfg.Telemetry != nil && cfg.Telemetry.Metrics != nil {
		publish(cfg.Telemetry.Metrics, res)
	}
	return res, nil
}

func collect(cfg Config, gen *Generator, lb *LB, ds *drillState) Result {
	const maxTime = ^uint64(0)
	// Recovery margin after the drill's stop point: requests arriving
	// inside it still feel the disruption (queued retries, probes not
	// yet readmitting), so Post starts after it.
	recovery := uint64(0.15 * float64(gen.duration))
	midEnd := ds.stopAt + recovery

	all := gen.latencies(0, maxTime)
	pre := gen.latencies(0, ds.startAt)
	mid := gen.latencies(ds.startAt, midEnd)
	post := gen.latencies(midEnd, maxTime)

	var max uint64
	for _, l := range all {
		if l > max {
			max = l
		}
	}
	st := lb.Stats()
	var traceStats otrace.Stats
	if cfg.Trace != nil {
		traceStats = cfg.Trace.Stats()
	}
	return Result{
		SLO:             gen.slo.Report(ds.startAt, midEnd),
		ExemplarBuckets: gen.latHist.Exemplars(),
		TraceStats:      traceStats,
		Requests:        len(gen.reqs),
		Completed:       gen.completed,
		Lost:            gen.lost,
		Retries:         gen.retries,
		Timeouts:        gen.timeouts,
		GenRefused:      gen.refused,
		LBRefused:       st.Refused,
		Routed:          st.Routed,
		Ejections:       st.Ejections,
		Readmissions:    st.Readmissions,
		DrainClosed:     st.DrainClosed,
		EjectClosed:     st.EjectClosed,
		ProbesSent:      st.ProbesSent,
		ProbesFailed:    st.ProbesFailed,
		P50:             percentile(all, 0.50),
		P99:             percentile(all, 0.99),
		Max:             max,
		P50Pre:          percentile(pre, 0.50),
		P99Pre:          percentile(pre, 0.99),
		P50Mid:          percentile(mid, 0.50),
		P99Mid:          percentile(mid, 0.99),
		P50Post:         percentile(post, 0.50),
		P99Post:         percentile(post, 0.99),
	}
}

// publish mirrors the result into the telemetry metrics registry.
func publish(m *telemetry.Registry, r Result) {
	set := func(name string, v uint64) { m.Counter("fleet." + name).Set(v) }
	set("requests", uint64(r.Requests))
	set("completed", uint64(r.Completed))
	set("lost", uint64(r.Lost))
	set("retries", uint64(r.Retries))
	set("timeouts", uint64(r.Timeouts))
	set("lb.routed", uint64(r.Routed))
	set("lb.refused", uint64(r.LBRefused))
	set("lb.ejections", uint64(r.Ejections))
	set("lb.readmissions", uint64(r.Readmissions))
	set("lb.drain_closed", uint64(r.DrainClosed))
	set("lb.eject_closed", uint64(r.EjectClosed))
	set("lb.probes_sent", uint64(r.ProbesSent))
	set("lb.probes_failed", uint64(r.ProbesFailed))
	set("latency.p50", r.P50)
	set("latency.p99", r.P99)
}

// clockHz is the modelled clock rate in cycles per second
// (webbench.ClockHz, restated here to avoid the import).
const clockHz = 2.1e9

// CyclesToMs converts a virtual-cycle latency to milliseconds at the
// modelled 2.1 GHz clock.
func CyclesToMs(c uint64) float64 { return float64(c) / clockHz * 1e3 }
