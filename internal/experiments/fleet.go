package experiments

import (
	"fmt"

	"lazypoline/internal/fleet"
	"lazypoline/internal/guest"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
)

// FleetBench is the robustness macrobenchmark: a (drill × mechanism)
// grid of farm runs (internal/fleet), each measuring completion, loss,
// health-check churn and the pre/mid/post latency tail around a scripted
// mid-run failure. Where Figure 5 asks "how much throughput does each
// interposition mechanism cost", FleetBench asks "does a farm running
// under each mechanism recover from failure the same way" — the capacity
// curves the fleet-scale-serving ROADMAP item calls for.

// FleetBenchDrills is the snapshot's drill set, in plot order.
var FleetBenchDrills = []fleet.DrillKind{
	fleet.DrillNone, fleet.DrillKill, fleet.DrillRST, fleet.DrillSlow, fleet.DrillDrain,
}

// FleetBenchMechanisms is the snapshot's mechanism set.
var FleetBenchMechanisms = []string{MechBaseline, MechLazypoline, MechSUD}

// FleetBenchConfig parameterises the sweep. One farm shape is shared by
// every cell; drills and mechanisms vary per cell.
type FleetBenchConfig struct {
	// Backends / Workers / FileSize shape each cell's farm.
	Backends int `json:"backends"`
	Workers  int `json:"workers"`
	FileSize int `json:"file_size"`
	// AppWorkIters is the per-request application work loop (0 = guest
	// default); the snapshot uses a small value so runs stay short.
	AppWorkIters int `json:"app_work_iters,omitempty"`
	// Requests and Rate define the offered load (requests per Mcycle).
	// The load must be sustainable by Backends-1 servers: the kill drill
	// gates on zero lost responses.
	Requests int     `json:"requests"`
	Rate     float64 `json:"rate"`
	// Seed drives every cell's arrival schedule.
	Seed uint64 `json:"seed"`
	// ProbeInterval / ProbeTimeout tune the balancer's health checker
	// (cycles; zero selects the fleet defaults). The snapshot narrows
	// them so the slow drill trips the checker.
	ProbeInterval uint64 `json:"probe_interval,omitempty"`
	ProbeTimeout  uint64 `json:"probe_timeout,omitempty"`
	// Drills and Mechanisms enumerate the grid; nil selects
	// FleetBenchDrills / FleetBenchMechanisms.
	Drills     []fleet.DrillKind `json:"drills"`
	Mechanisms []string          `json:"mechanisms"`
	// ChaosSeed / ChaosRate layer the chaos engine under every cell's
	// drill. Experiment parameters: they change the numbers, so they
	// stay JSON-visible.
	ChaosSeed uint64  `json:"chaos_seed,omitempty"`
	ChaosRate float64 `json:"chaos_rate,omitempty"`
	// Parallelism is execution machinery (results are byte-identical at
	// any width), so it stays out of the snapshot.
	Parallelism int `json:"-"`
	// Trace, when non-nil, supplies a request tracer per cell (nil
	// return = that cell untraced). Observability machinery, excluded
	// from the snapshot: rows are byte-identical with tracing on or off
	// (DESIGN.md §9), and TestFleetBenchDeterminism compares the two.
	Trace func(drill fleet.DrillKind, mech string) *otrace.Tracer `json:"-"`
}

// DefaultFleetBenchConfig returns the snapshot configuration.
func DefaultFleetBenchConfig() FleetBenchConfig {
	return FleetBenchConfig{
		Backends:      3,
		Workers:       1,
		FileSize:      512,
		AppWorkIters:  600,
		Requests:      150,
		Rate:          25,
		Seed:          42,
		ProbeInterval: 150_000,
		ProbeTimeout:  20_000,
		Drills:        FleetBenchDrills,
		Mechanisms:    FleetBenchMechanisms,
	}
}

// FleetBenchRow is one (drill, mechanism) cell's outcome. Latencies are
// virtual cycles, with millisecond views at the modelled clock.
type FleetBenchRow struct {
	Drill     string `json:"drill"`
	Mechanism string `json:"mechanism"`

	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Lost      int `json:"lost"`
	Retries   int `json:"retries"`
	Timeouts  int `json:"timeouts"`

	Ejections    int `json:"ejections"`
	Readmissions int `json:"readmissions"`
	DrainClosed  int `json:"drain_closed"`
	ProbesFailed int `json:"probes_failed"`

	P50 uint64 `json:"p50_cycles"`
	P99 uint64 `json:"p99_cycles"`
	Max uint64 `json:"max_cycles"`
	// The recovery curve: tail latency before, during, and after the
	// drill window (bucketed by arrival time).
	P99Pre  uint64 `json:"p99_pre_cycles"`
	P99Mid  uint64 `json:"p99_mid_cycles"`
	P99Post uint64 `json:"p99_post_cycles"`

	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`

	// Observability blocks (DESIGN.md §9), appended after the original
	// points so existing fields stay byte-identical. Both are computed
	// host-side on every run — attaching a tracer changes neither.
	SLO           otrace.SLOReport           `json:"slo"`
	ExemplarCount int                        `json:"exemplar_count"`
	Exemplars     []telemetry.BucketExemplar `json:"exemplars,omitempty"`
}

// fleetCell identifies one sweep cell.
type fleetCell struct {
	drill fleet.DrillKind
	mech  string
}

// FleetBench runs the (drill × mechanism) grid. Cells are enumerated in
// plot order and measured on a bounded worker pool; each owns a private
// kernel and farm, so any parallelism yields byte-identical rows.
func FleetBench(cfg FleetBenchConfig) ([]FleetBenchRow, error) {
	if len(cfg.Drills) == 0 {
		cfg.Drills = FleetBenchDrills
	}
	if len(cfg.Mechanisms) == 0 {
		cfg.Mechanisms = FleetBenchMechanisms
	}
	var cells []fleetCell
	for _, d := range cfg.Drills {
		for _, m := range cfg.Mechanisms {
			cells = append(cells, fleetCell{d, m})
		}
	}
	rows := make([]FleetBenchRow, len(cells))
	err := runSweep(len(cells), cfg.Parallelism, func(i int) error {
		c := cells[i]
		var tracer *otrace.Tracer
		if cfg.Trace != nil {
			tracer = cfg.Trace(c.drill, c.mech)
		}
		res, err := fleet.Run(fleet.Config{
			Backends:      cfg.Backends,
			Workers:       cfg.Workers,
			Style:         guest.StyleNginx,
			FileSize:      cfg.FileSize,
			AppWorkIters:  cfg.AppWorkIters,
			Requests:      cfg.Requests,
			Rate:          cfg.Rate,
			Seed:          cfg.Seed,
			Drill:         fleet.Drill{Kind: c.drill, Backend: drillTarget(c.drill, cfg.Backends)},
			ProbeInterval: cfg.ProbeInterval,
			ProbeTimeout:  cfg.ProbeTimeout,
			Attach:        fleet.AttachFunc(AttachFunc(c.mech)),
			ChaosSeed:     cfg.ChaosSeed,
			ChaosRate:     cfg.ChaosRate,
			Trace:         tracer,
		})
		if err != nil {
			return fmt.Errorf("experiments: fleetbench %s/%s: %w", c.drill, c.mech, err)
		}
		rows[i] = FleetBenchRow{
			Drill:        string(c.drill),
			Mechanism:    c.mech,
			Requests:     res.Requests,
			Completed:    res.Completed,
			Lost:         res.Lost,
			Retries:      res.Retries,
			Timeouts:     res.Timeouts,
			Ejections:    res.Ejections,
			Readmissions: res.Readmissions,
			DrainClosed:  res.DrainClosed,
			ProbesFailed: res.ProbesFailed,
			P50:          res.P50,
			P99:          res.P99,
			Max:          res.Max,
			P99Pre:       res.P99Pre,
			P99Mid:       res.P99Mid,
			P99Post:      res.P99Post,
			P50Ms:        fleet.CyclesToMs(res.P50),
			P99Ms:        fleet.CyclesToMs(res.P99),

			SLO:           res.SLO,
			ExemplarCount: len(res.ExemplarBuckets),
			Exemplars:     res.ExemplarBuckets,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// drillTarget picks the drilled backend: the last one, so backend 0 (the
// round-robin anchor) stays up in every drill.
func drillTarget(d fleet.DrillKind, backends int) int {
	switch d {
	case fleet.DrillKill, fleet.DrillSlow, fleet.DrillDrain:
		return backends - 1
	}
	return 0
}
