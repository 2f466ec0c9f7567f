package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"

	"lazypoline/internal/experiments"
	"lazypoline/internal/fleet"
	"lazypoline/internal/otrace"
)

// fleetCmd runs the fleet-scale robustness sweep: a farm of backend web
// servers behind a simulated L4 balancer, measured under scripted chaos
// drills (backend kill, RST storm, slow backend, drain) for every
// interposition mechanism, with an open-loop arrival-driven client. Each
// cell reports completion/loss, health-check churn, and the
// pre/mid/post-drill latency tail — the recovery curve. The farm shape is
// experiments.DefaultFleetBenchConfig's.
//
// -trace-out attaches a request tracer to every cell (DESIGN.md §9) and
// writes each cell's retained span trees; with more than one cell the
// drill/mechanism is inserted into the file name. -slo-out writes the
// per-cell SLO burn-rate reports, which are computed on every run —
// neither flag changes a byte of the -out snapshot.
func fleetCmd(args []string, w io.Writer) error {
	cfg := experiments.DefaultFleetBenchConfig()
	var out, traceOut, sloOut string
	f := newFlags("fleet")
	f.requests(&cfg.Requests)
	f.Float64Var(&cfg.Rate, "rate", cfg.Rate, "offered load in requests per Mcycle")
	f.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "arrival-schedule seed")
	f.Var(listFlag[fleet.DrillKind]{&cfg.Drills, fleet.ParseDrill, func(d fleet.DrillKind) string { return string(d) }},
		"drills", "chaos drills to run")
	f.mechs(&cfg.Mechanisms)
	f.chaos(&cfg.ChaosSeed, &cfg.ChaosRate)
	f.parallel(&cfg.Parallelism)
	f.out(&out, "BENCH_fleet.json")
	f.traceOut(&traceOut)
	f.StringVar(&sloOut, "slo-out", "", "write per-cell SLO burn-rate reports to this benchfmt file")
	if err := f.parse(args, 0); err != nil {
		return err
	}

	// With -trace-out, every cell gets a tracer built up front; the sweep
	// callback only looks one up, so parallel cells never race.
	type cellKey struct {
		drill fleet.DrillKind
		mech  string
	}
	tracers := map[cellKey]*otrace.Tracer{}
	if traceOut != "" {
		for _, d := range cfg.Drills {
			for _, m := range cfg.Mechanisms {
				tracers[cellKey{d, m}] = otrace.New(otrace.Config{})
			}
		}
		cfg.Trace = func(d fleet.DrillKind, m string) *otrace.Tracer {
			return tracers[cellKey{d, m}]
		}
	}

	fmt.Fprintf(w, "Fleet robustness — %d backends x %d workers, %d requests at %.0f req/Mcycle, seed %d\n",
		cfg.Backends, cfg.Workers, cfg.Requests, cfg.Rate, cfg.Seed)

	begin := time.Now()
	rows, err := experiments.FleetBench(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(begin)

	lastDrill := ""
	for _, r := range rows {
		if r.Drill != lastDrill {
			fmt.Fprintf(w, "\ndrill: %s\n", r.Drill)
			fmt.Fprintf(w, "  %-22s %9s %5s %7s %6s %7s %12s %12s %30s\n",
				"mechanism", "completed", "lost", "retries", "eject", "readmit", "p50", "p99", "p99 pre/mid/post (cycles)")
			lastDrill = r.Drill
		}
		fmt.Fprintf(w, "  %-22s %5d/%-3d %5d %7d %6d %7d %9.3fms %9.3fms %10d/%d/%d\n",
			r.Mechanism, r.Completed, r.Requests, r.Lost, r.Retries,
			r.Ejections, r.Readmissions, r.P50Ms, r.P99Ms, r.P99Pre, r.P99Mid, r.P99Post)
		if r.SLO.Bad > 0 || len(r.SLO.Alerts) > 0 {
			fmt.Fprintf(w, "    slo: %d/%d over the %d-cycle objective", r.SLO.Bad,
				r.SLO.Good+r.SLO.Bad, r.SLO.Objective)
			for _, a := range r.SLO.Alerts {
				res := "unresolved"
				if a.ResolvedAt != 0 {
					res = fmt.Sprintf("resolved @%d", a.ResolvedAt)
				}
				fmt.Fprintf(w, "; %s fired @%d burn %.1fx (%s)", a.Rule, a.FiredAt, a.Burn, res)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\n%d cells in %.1fs (-j %d)\n", len(rows), wall.Seconds(), cfg.Parallelism)

	if err := writeSnapshot(w, out, "fleet", cfg.Parallelism, wall, cfg, rows); err != nil {
		return err
	}

	for _, d := range cfg.Drills {
		for _, m := range cfg.Mechanisms {
			tr := tracers[cellKey{d, m}]
			if tr == nil {
				continue
			}
			path := traceOut
			if len(tracers) > 1 {
				// fleet_trace.json -> fleet_trace_kill_lazypoline.json
				ext := filepath.Ext(path)
				path = strings.TrimSuffix(path, ext) + "_" + string(d) + "_" + m + ext
			}
			if err := writeEvents(w, path, tr.Export()); err != nil {
				return err
			}
		}
	}

	type sloRow struct {
		Drill     string           `json:"drill"`
		Mechanism string           `json:"mechanism"`
		SLO       otrace.SLOReport `json:"slo"`
	}
	srows := make([]sloRow, len(rows))
	for i, r := range rows {
		srows[i] = sloRow{Drill: r.Drill, Mechanism: r.Mechanism, SLO: r.SLO}
	}
	return writeSnapshot(w, sloOut, "fleet-slo", cfg.Parallelism, wall, cfg, srows)
}
