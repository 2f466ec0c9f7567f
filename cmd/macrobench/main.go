// Command macrobench regenerates the paper's Figure 5: nginx-like and
// lighttpd-like web servers serving static files of varying sizes under
// every interposition mechanism, with 1 and 12 pre-forked workers,
// loaded by a wrk-like keep-alive client.
//
// Usage:
//
//	macrobench [-requests N] [-conns N] [-sizes 64,1024,...] [-workers 1,12] [-servers nginx,lighttpd] [-j N] [-out BENCH_figure5.json]
//
// Cells run on a bounded worker pool (-j, default all CPUs); each cell
// owns an isolated simulated machine, and results are assembled in plot
// order, so parallel output is byte-identical to a serial run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lazypoline/internal/benchfmt"
	"lazypoline/internal/experiments"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/webbench"
)

func main() {
	requests := flag.Int("requests", 240, "requests per configuration")
	conns := flag.Int("conns", 36, "keep-alive client connections (wrk threads)")
	sizes := flag.String("sizes", "64,1024,16384,65536,262144", "file sizes in bytes")
	workers := flag.String("workers", "1,12", "worker process counts")
	servers := flag.String("servers", "nginx,lighttpd", "server styles")
	capFactor := flag.Float64("clientcap", 10, "client capacity as a multiple of the 1-worker baseline (0 disables)")
	parallel := flag.Int("j", experiments.DefaultParallelism(), "sweep cells measured concurrently")
	chaosSeed := flag.Uint64("chaos-seed", 0, "deterministic fault-injection seed (see internal/chaos)")
	chaosRate := flag.Float64("chaos-rate", 0, "fault-injection rate in [0,1]; 0 disables chaos entirely")
	policyRegions := flag.Bool("policy-regions", false, "enforce the privilege-region syscall policy in every cell")
	policySFIP := flag.Bool("policy-sfip", false, "enforce a per-cell learned SFIP syscall policy (learn-then-enforce double run)")
	reqTrace := flag.Bool("reqtrace", false, "attach a request tracer to every cell (results are identical either way; the instrumented -trace-out run gains request span trees)")
	out := flag.String("out", "BENCH_figure5.json", "machine-readable result file (empty disables)")
	metricsOut := flag.String("metrics-out", "", "record per-dispatch-path cycle breakdowns for every cell into this benchfmt file")
	traceOut := flag.String("trace-out", "", "write a timeline trace of one instrumented webserver run (.jsonl = compact lines, else Chrome/Perfetto JSON)")
	profileOut := flag.String("profile-out", "", "write folded flamegraph stacks of one instrumented webserver run")
	flag.Parse()

	// Costs is named rather than left zero (which selects the same model)
	// so the snapshot header echoes the prices the cells ran under.
	cfg := experiments.Figure5Config{
		Costs:           kernel.DefaultCostModel(),
		Requests:        *requests,
		Connections:     *conns,
		ClientCapFactor: *capFactor,
		Parallelism:     *parallel,
		Mechanisms:      experiments.Figure5Mechanisms,
		ChaosSeed:       *chaosSeed,
		ChaosRate:       *chaosRate,
		PolicyRegions:   *policyRegions,
		PolicySFIP:      *policySFIP,
		RequestTraces:   *reqTrace,
	}
	var err error
	if cfg.FileSizes, err = parseInts(*sizes); err != nil {
		fatal(err)
	}
	if cfg.Workers, err = parseInts(*workers); err != nil {
		fatal(err)
	}
	for _, s := range strings.Split(*servers, ",") {
		switch strings.TrimSpace(s) {
		case "nginx":
			cfg.Servers = append(cfg.Servers, guest.StyleNginx)
		case "lighttpd":
			cfg.Servers = append(cfg.Servers, guest.StyleLighttpd)
		default:
			fatal(fmt.Errorf("unknown server style %q", s))
		}
	}

	fmt.Printf("Figure 5 — web server throughput under interposition\n")
	fmt.Printf("(%d requests, %d keep-alive connections per run; relative = vs same-config baseline)\n",
		cfg.Requests, cfg.Connections)

	begin := time.Now()
	var points []experiments.Figure5Point
	var cellMetrics []experiments.Figure5CellMetrics
	if *metricsOut != "" {
		points, cellMetrics, err = experiments.Figure5WithMetrics(cfg)
	} else {
		points, err = experiments.Figure5(cfg)
	}
	if err != nil {
		fatal(err)
	}
	wall := time.Since(begin)
	lastKey := ""
	for _, p := range points {
		key := fmt.Sprintf("%s, %d worker(s), %s files", p.Server, p.Workers, size(p.FileSize))
		if key != lastKey {
			fmt.Printf("\n%s\n", key)
			lastKey = key
		}
		capped := ""
		if p.ClientCapped {
			capped = " (client-limited)"
		}
		fmt.Printf("  %-22s %12.0f req/s   %6.1f%%%s\n", p.Mechanism, p.Throughput, 100*p.Relative, capped)
	}
	fmt.Printf("\n%d cells in %.1fs (-j %d)\n", len(points), wall.Seconds(), *parallel)

	if *out != "" {
		err := benchfmt.Write(*out, benchfmt.File{
			Name:        "figure5",
			Parallelism: *parallel,
			WallSeconds: wall.Seconds(),
			Config:      cfg,
			Results:     points,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	// The per-path breakdowns go into a SEPARATE benchfmt file: the main
	// BENCH_figure5.json must stay byte-identical whether or not the
	// sweep was instrumented (CI diffs the two to prove telemetry is
	// inert).
	if *metricsOut != "" {
		err := benchfmt.Write(*metricsOut, benchfmt.File{
			Name:        "figure5-metrics",
			Parallelism: *parallel,
			WallSeconds: wall.Seconds(),
			Config:      cfg,
			Results:     cellMetrics,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if *traceOut != "" || *profileOut != "" {
		if err := instrumentedRun(cfg, *traceOut, *profileOut, *reqTrace); err != nil {
			fatal(err)
		}
	}
}

// instrumentedRun re-runs one representative cell — lazypoline, one
// worker, the smallest swept file size — with a timeline and profiler
// attached, and writes the requested outputs. It runs after the sweep so
// the measured points are never from an instrumented kernel. With
// reqTrace the run also carries a request tracer, and its retained span
// trees are appended to the timeline trace (tracecat -requests reads
// them back out).
func instrumentedRun(cfg experiments.Figure5Config, traceOut, profileOut string, reqTrace bool) error {
	sink := &telemetry.Sink{}
	if traceOut != "" {
		sink.Timeline = telemetry.NewTimeline()
	}
	if profileOut != "" {
		sink.Profiler = telemetry.NewProfiler()
	}
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
	if reqTrace {
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
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		evs := sink.Timeline.Events()
		if tracer != nil {
			evs = append(evs, tracer.Export()...)
		}
		if strings.HasSuffix(traceOut, ".jsonl") {
			err = telemetry.EncodeJSONL(f, evs)
		} else {
			err = telemetry.EncodeChrome(f, evs)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", traceOut)
	}
	if profileOut != "" {
		symbols, err := webbench.Symbols(wcfg)
		if err != nil {
			return err
		}
		f, err := os.Create(profileOut)
		if err != nil {
			return err
		}
		err = sink.Profiler.WriteFolded(f, symbols)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", profileOut)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "macrobench:", err)
	os.Exit(1)
}
