// Command bench is the repository's host-time benchmark: six workloads
// over the simulator, each checked against golden simulated results,
// with end-to-end metrics from untraced passes and per-layer metrics
// from traced ones. README.md in this directory is the manual.
//
// Usage (from the repository root):
//
//	bench/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1|both]
//	bench/run.sh -selfcheck
//	bench/run.sh -update-golden
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// outDir receives result.json and the trace files.
const outDir = "bench/out"

// header is the environment every output starts with.
type header struct {
	HostCores  int    `json:"host_cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	// LargeCores is the Cores setting of workload f5_large_cores.
	LargeCores int     `json:"f5_large_cores_cores"`
	Seconds    float64 `json:"seconds"`
	Trace      string  `json:"trace"`
}

func (h header) String() string {
	return fmt.Sprintf("host_cores=%d GOMAXPROCS=%d go=%s commit=%s seed=%d f5_large_cores.Cores=%d seconds=%g trace=%s",
		h.HostCores, h.GoMaxProcs, h.GoVersion, h.Commit, h.Seed, h.LargeCores, h.Seconds, h.Trace)
}

// commit is the revision the binary was built from, as the go tool
// stamped it; a checkout that is no git repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func selectWorkloads(list string) ([]workload, error) {
	all := workloads()
	if list == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	list := flag.String("workload", "", "comma-separated workloads to run (default: all six)")
	seed := flag.Uint64("seed", goldenSeed, "workload seed: drives the fleet_drills arrival schedule")
	seconds := flag.Float64("seconds", 10, "seconds of untraced timed passes per workload")
	trace := flag.String("trace", "both", "0: end-to-end metrics only; 1: per-layer metrics only; both")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets and compare them against the bounds in BENCHMARK.json")
	update := flag.Bool("update-golden", false, "regenerate bench/golden/ at the golden seed")
	setup := flag.Bool("setup-only", false, "internal: run set-up for one workload and print its seconds")
	child := flag.Bool("child", false, "internal: run one workload and print its full report as the last line")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	selected, err := selectWorkloads(*list)
	if err != nil {
		return err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace}
	switch o.trace {
	case "0":
		o.e2e = true
	case "1":
		o.traced = true
	case "both":
		o.e2e, o.traced = true, true
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}

	if (*setup || *child) && len(selected) != 1 {
		return fmt.Errorf("-setup-only and -child take one workload")
	}
	switch {
	case *setup:
		return setupOnly(selected[0], o.seed)
	case *child:
		rep, err := runOne(selected[0], o)
		if err != nil {
			return err
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	case *update:
		if o.seed != goldenSeed {
			return fmt.Errorf("goldens are generated at seed %d", goldenSeed)
		}
		for _, w := range selected {
			if err := updateGolden(w); err != nil {
				return err
			}
			fmt.Printf("wrote %s/%s.json (%d cells)\n", goldenDir, w.name, len(w.cells))
		}
		return nil
	case *selfcheck:
		return selfCheck(selected, o)
	}

	h := header{
		HostCores: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: o.seed, LargeCores: largeCores(), Seconds: o.seconds, Trace: o.trace,
	}
	fmt.Println("# lazypoline simulator host-time benchmark")
	fmt.Println("#", h)

	// The driver runs one workload per process. Several workloads each
	// get a process of their own too, so that every number reads the
	// same either way: heap and caches left by one workload change the
	// next one's collector pacing (coldstart runs half as fast again
	// after f5_large has grown the heap).
	var reports []*report
	bad := 0
	for _, w := range selected {
		var rep *report
		if len(selected) == 1 {
			rep, err = runOne(w, o)
		} else {
			rep, err = runIsolated(w, o, os.Stdout)
		}
		if err != nil {
			return err
		}
		if !rep.Correct {
			bad++
		}
		reports = append(reports, rep)
	}
	if err := writeResult(h, reports); err != nil {
		return err
	}
	// One workload is what the driver asks for: its result is the last
	// line of standard output.
	if len(reports) == 1 {
		var defs []metricDef
		if o.e2e {
			defs = append(defs, endToEnd...)
		}
		if o.traced {
			defs = append(defs, perLayer...)
		}
		fmt.Println(resultLine(reports[0], defs))
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workloads failed their checks (fail_ratio or sim_mismatch_cells above 0)", bad, len(reports))
	}
	return nil
}

// runOne measures one workload in this process, prints its table and
// writes its trace file.
func runOne(w workload, o options) (*report, error) {
	rep, err := measure(w, o)
	if err != nil {
		return nil, err
	}
	// The probes come last: what they leave on the heap (sixty cached
	// guest images from the assembler probe alone) relaxes the
	// collector's pacing and would speed the timed passes up.
	if o.traced {
		if err := runProbes(rep.Metrics); err != nil {
			return nil, err
		}
	}
	printReport(rep, o)
	if rep.trace != nil {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		names := make([]string, len(w.cells))
		for i, c := range w.cells {
			names[i] = c.name
		}
		if err := writeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), names, rep.trace); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runIsolated has a process of its own run runOne, copies what that
// prints to out and returns its report, which is its last line.
func runIsolated(w workload, o options, out io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-trace", o.trace,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	table, last, _ := bytes.Cut(bytes.TrimSuffix(b, []byte("\n")), []byte("\n{"))
	if _, err := out.Write(append(table, '\n')); err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(append([]byte("{"), last...), rep); err != nil {
		return nil, fmt.Errorf("workload %s: report line: %w", w.name, err)
	}
	return rep, nil
}

func printReport(rep *report, o options) {
	fmt.Printf("\nworkload %s: unit = %s; loop: %s; %d cells, %d units/pass, %d timed passes\n",
		rep.Workload, rep.Unit, rep.Loop, rep.Cells, rep.Units, rep.Passes)
	row := func(d metricDef) {
		fmt.Printf("  %-36s %16.6g %-13s (%s is better)\n", d.name, rep.Metrics[d.name], d.unit, d.better)
	}
	if o.e2e {
		fmt.Printf(" end to end, tracing off (setup_s: median of %d fresh processes)\n", len(rep.SetupSamples))
		for _, d := range endToEnd {
			row(d)
		}
	}
	fmt.Printf(" checks\n")
	fmt.Printf("  %-36s %16.6g %-13s (%d of %d)\n", "fail_ratio", float64(rep.Failed)/float64(rep.Attempted), "failed/units", rep.Failed, rep.Attempted)
	fmt.Printf("  %-36s %16d %-13s %s\n", "sim_mismatch_cells", len(rep.Mismatched), "cells", strings.Join(rep.Mismatched, ", "))
	if rep.PaperErrPct != nil {
		fmt.Printf("  %-36s %16.6g %-13s (largest relative error against the paper's values)\n", "paper_err_pct", *rep.PaperErrPct, "%")
	} else {
		fmt.Printf("  %-36s %16s %-13s (no paper value for this workload: the model is unvalidated here)\n", "paper_err_pct", "-", "%")
	}
	if o.traced {
		fmt.Printf(" per layer, from traced passes, program counters and probes (times are self times)\n")
		for _, d := range perLayer {
			row(d)
		}
	}
}

// writeResult writes result.json: the environment, then every workload.
func writeResult(h header, reports []*report) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Env       header    `json:"env"`
		Workloads []*report `json:"workloads"`
	}{h, reports}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result.json"), append(b, '\n'), 0o644)
}
