package main

import (
	"fmt"
	"io"
	"time"

	"lazypoline/internal/experiments"
	"lazypoline/internal/kernel"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/webbench"
)

// figure5Cmd regenerates the paper's Figure 5: nginx-like and
// lighttpd-like web servers serving static files of varying sizes under
// every interposition mechanism, with 1 and 12 pre-forked workers, loaded
// by a wrk-like keep-alive client. Cells run on a bounded worker pool
// (-j); each owns an isolated simulated machine, and results are
// assembled in plot order, so parallel output is byte-identical to a
// serial run.
//
// -metrics-out writes each cell's per-dispatch-path cycle breakdown to a
// separate benchfmt file; -trace-out and -profile-out re-run one
// representative cell instrumented (see instrumentedRun).
func figure5Cmd(args []string, w io.Writer) error {
	cfg := experiments.DefaultFigure5Config()
	// Costs is named rather than left zero (which selects the same model)
	// so the snapshot header echoes the prices the cells ran under.
	cfg.Costs = kernel.DefaultCostModel()
	cfg.Mechanisms = experiments.Figure5Mechanisms
	var out string
	var o outputs
	f := newFlags("figure5")
	f.requests(&cfg.Requests)
	f.conns(&cfg.Connections)
	f.sizes(&cfg.FileSizes)
	f.Var(intList(&cfg.Workers), "workers", "worker process counts")
	f.servers(&cfg.Servers)
	f.parallel(&cfg.Parallelism)
	f.chaos(&cfg.ChaosSeed, &cfg.ChaosRate)
	f.BoolVar(&cfg.RequestTraces, "reqtrace", false, "attach a request tracer to every cell (results are identical either way; the instrumented -trace-out run gains request span trees)")
	f.out(&out, "BENCH_figure5.json")
	f.telemetry(&o)
	if err := f.parse(args, 0); err != nil {
		return err
	}

	fmt.Fprintf(w, "Figure 5 — web server throughput under interposition\n")
	fmt.Fprintf(w, "(%d requests, %d keep-alive connections per run; relative = vs same-config baseline)\n",
		cfg.Requests, cfg.Connections)

	begin := time.Now()
	var points []experiments.Figure5Point
	var cellMetrics []experiments.Figure5CellMetrics
	var err error
	if o.metrics != "" {
		points, cellMetrics, err = experiments.Figure5WithMetrics(cfg)
	} else {
		points, err = experiments.Figure5(cfg)
	}
	if err != nil {
		return err
	}
	wall := time.Since(begin)
	lastKey := ""
	for _, p := range points {
		key := fmt.Sprintf("%s, %d worker(s), %s files", p.Server, p.Workers, size(p.FileSize))
		if key != lastKey {
			fmt.Fprintf(w, "\n%s\n", key)
			lastKey = key
		}
		capped := ""
		if p.ClientCapped {
			capped = " (client-limited)"
		}
		fmt.Fprintf(w, "  %-22s %12.0f req/s   %6.1f%%%s\n", p.Mechanism, p.Throughput, 100*p.Relative, capped)
	}
	fmt.Fprintf(w, "\n%d cells in %.1fs (-j %d)\n", len(points), wall.Seconds(), cfg.Parallelism)

	if err := writeSnapshot(w, out, "figure5", cfg.Parallelism, wall, cfg, points); err != nil {
		return err
	}
	// The per-path breakdowns go into a SEPARATE benchfmt file: the main
	// snapshot stays byte-identical whether or not the sweep was
	// instrumented.
	if err := writeSnapshot(w, o.metrics, "figure5-metrics", cfg.Parallelism, wall, cfg, cellMetrics); err != nil {
		return err
	}
	if o.trace == "" && o.profile == "" {
		return nil
	}
	return instrumentedRun(w, cfg, outputs{trace: o.trace, profile: o.profile})
}

// instrumentedRun re-runs one representative cell — lazypoline, one
// worker, the smallest swept file size — with a timeline and profiler
// attached, and writes the requested outputs. It runs after the sweep so
// the measured points are never from an instrumented kernel. With
// RequestTraces the run also carries a request tracer, and its retained
// span trees are appended to the timeline trace (`lazysim trace
// -requests` reads them back out).
func instrumentedRun(w io.Writer, cfg experiments.Figure5Config, o outputs) error {
	sink := o.sink()
	wcfg := webbench.Config{
		Style:       cfg.Servers[0],
		Workers:     1,
		FileSize:    cfg.FileSizes[0],
		Connections: cfg.Connections,
		Requests:    cfg.Requests,
		Attach:      experiments.AttachFunc(experiments.MechLazypoline),
		Costs:       cfg.Costs,
		Telemetry:   sink,
	}
	var tracer *otrace.Tracer
	if cfg.RequestTraces {
		tracer = otrace.New(otrace.Config{
			// The closed-loop client re-issues dropped requests rather
			// than losing them, so retain a tree per latency exemplar:
			// a drill-free webbench run still yields inspectable trees.
			LatencyThreshold: 1,
		})
		wcfg.Trace = tracer
		wcfg.TraceSeed = 1
	}
	if _, err := webbench.Run(wcfg); err != nil {
		return fmt.Errorf("instrumented run: %w", err)
	}
	var extra []telemetry.Event
	if tracer != nil {
		extra = tracer.Export()
	}
	var symbols map[string]uint64
	if o.profile != "" {
		var err error
		if symbols, err = webbench.Symbols(wcfg); err != nil {
			return err
		}
	}
	return o.write(w, sink, extra, symbols)
}

func size(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
