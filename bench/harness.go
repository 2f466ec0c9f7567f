package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is when this process began, to within runtime start-up.
var processStart = time.Now()

// options are the run's settings; none changes a cell's definition.
type options struct {
	seed    uint64
	seconds float64
	// trace is the -trace flag; e2e and traced are what it selects: the
	// set-up samples and end-to-end metrics, and the traced passes plus
	// layer probes.
	trace       string
	e2e, traced bool
}

// runPass runs every cell of w once, untraced, and returns the results.
func runPass(w workload, seed uint64) ([]result, error) {
	out := make([]result, len(w.cells))
	for i, c := range w.cells {
		r, err := c.run(&env{seed: seed})
		if err != nil {
			return nil, fmt.Errorf("%s cell %s: %w", w.name, c.name, err)
		}
		out[i] = r
	}
	return out, nil
}

// prepare is the set-up before the first timed pass: one untimed warm-up
// pass over all cells, which assembles and caches the guest images,
// grows the heap and yields the reference digests, and the golden check.
// The arrival schedule of a seeded workload follows the seed, so away
// from the golden seed its reference is the warm-up pass alone.
func prepare(w workload, seed uint64) (ref []result, mismatched []string, err error) {
	ref, err = runPass(w, seed)
	if err != nil {
		return nil, nil, err
	}
	if w.seeded && seed != goldenSeed {
		return ref, nil, nil
	}
	mismatched, err = checkGolden(w, ref)
	return ref, mismatched, err
}

// setupOnly is what a child started by setupSamples runs: prepare in a
// fresh process, then report the time since that process started.
func setupOnly(w workload, seed uint64) error {
	_, mismatched, err := prepare(w, seed)
	if err != nil {
		return err
	}
	if len(mismatched) > 0 {
		return fmt.Errorf("%s: cells differ from golden: %s", w.name, strings.Join(mismatched, ", "))
	}
	fmt.Println(time.Since(processStart).Seconds())
	return nil
}

// setupSamples measures set-up on fresh processes, one after the other,
// so every sample pays process start, image assembly and heap growth the
// way a user's run does. It takes at least three samples and goes on
// for five seconds, up to twenty-five: a set-up of a tenth of a second
// varies by a fifth from one process to the next, so its median needs
// many samples where a set-up of two seconds needs few.
func setupSamples(w workload, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var samples []float64
	begin := time.Now()
	for len(samples) < 3 || (len(samples) < 25 && time.Since(begin) < 5*time.Second) {
		cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process for %s: %w: %s", w.name, err, stderr.String())
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up process for %s printed %q", w.name, out)
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// report is everything measured on one workload.
type report struct {
	Workload string `json:"workload"`
	Unit     string `json:"unit"`
	Loop     string `json:"loop"`
	Cells    int    `json:"cells"`
	Units    int    `json:"units_per_pass"`
	Passes   int    `json:"timed_passes"`

	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Mismatched []string `json:"sim_mismatch_cells"`
	// PaperErrPct is nil on workloads with no paper value to compare
	// against: there the model is unvalidated.
	PaperErrPct *float64 `json:"paper_err_pct"`

	SetupSamples []float64 `json:"setup_samples_s,omitempty"`
	// PassCellMs is every untraced timed run made: pass by pass, cell by
	// cell, in milliseconds.
	PassCellMs [][]float64 `json:"pass_cell_ms"`
	// Metrics holds every metric measured, by name.
	Metrics map[string]float64 `json:"metrics"`

	trace []span
}

// timedPasses runs untraced passes over cells until the time budget is
// spent (at least minPasses), checking every run against ref.
func timedPasses(w workload, cells []cell, ref []result, seed uint64, budget time.Duration, minPasses int, rep *report) ([][]time.Duration, error) {
	var passes [][]time.Duration
	begin := time.Now()
	for len(passes) < minPasses || time.Since(begin) < budget {
		times := make([]time.Duration, len(cells))
		for i, c := range cells {
			e := env{seed: seed}
			t0 := time.Now()
			r, err := c.run(&e)
			times[i] = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s cell %s: %w", w.name, c.name, err)
			}
			rep.check(c, r, ref[i])
		}
		passes = append(passes, times)
	}
	return passes, nil
}

// check books one cell run: its units, its failures, and whether its
// simulated result is the reference one.
func (rep *report) check(c cell, got, want result) {
	rep.Attempted += c.units
	rep.Failed += got.failed
	if got.digest != want.digest {
		for _, name := range rep.Mismatched {
			if name == c.name {
				return
			}
		}
		rep.Mismatched = append(rep.Mismatched, c.name)
	}
}

// measure runs one workload: set-up, the untraced timed passes behind
// the end-to-end metrics, and the traced passes behind the per-layer
// ones.
func measure(w workload, o options) (*report, error) {
	begin := time.Now()
	rep := &report{
		Workload: w.name, Unit: w.unit, Loop: w.loop,
		Cells: len(w.cells), Units: w.units(),
		Metrics: make(map[string]float64),
	}
	m := rep.Metrics

	if o.e2e {
		samples, err := setupSamples(w, o.seed)
		if err != nil {
			return nil, err
		}
		rep.SetupSamples = samples
		m["setup_s"] = median(samples)
	}
	ref, mismatched, err := prepare(w, o.seed)
	if err != nil {
		return nil, err
	}
	rep.Mismatched = mismatched
	if w.paperErr != nil {
		values := make(map[string]float64, len(ref))
		for i, c := range w.cells {
			values[c.name] = ref[i].value
		}
		pe := w.paperErr(values)
		rep.PaperErrPct = &pe
	}

	// The traced run needs untraced passes too, as the base of the
	// tracing overhead; it gives them half the budget.
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.e2e {
		budget /= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	passes, err := timedPasses(w, w.cells, ref, o.seed, budget, 3, rep)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	rep.Passes = len(passes)
	for _, p := range passes {
		row := make([]float64, len(p))
		for i, d := range p {
			row[i] = ms(d)
		}
		rep.PassCellMs = append(rep.PassCellMs, row)
	}
	est, estCells := passEstimate(passes)
	work := float64(len(passes) * rep.Units)

	m["sim_units_per_s"] = float64(rep.Units) / est.Seconds()
	m["alloc_mb_per_kunit"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / work * 1000
	m["allocs_per_unit"] = float64(after.Mallocs-before.Mallocs) / work

	totals := passTotals(passes)
	m["harness.pass_ms_p50"] = median(totals)
	m["harness.pass_ms_hi"], m["harness.pass_hi_pct"] = highPercentile(totals)
	m["harness.samples"] = float64(len(passes))
	m["harness.host_cores"] = float64(runtime.NumCPU())
	m["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["runtime.gc_cpu_frac"] = after.GCCPUFraction
	m["runtime.heap_sys_mb"] = float64(after.HeapSys) / 1e6
	for i, c := range w.cells {
		if c.mech != "" {
			m["mech."+metricMech(c.mech)+".cell_ms"] += ms(estCells[i])
		}
	}
	m["kernel.par_speedup"] = 1

	if o.traced {
		if err := tracedPasses(w, ref, o.seed, budget/2, passes, rep); err != nil {
			return nil, err
		}
		if w.coresOne != nil {
			// The same cells on the sequential scheduler for three
			// passes, against as many of the timed passes above.
			seq, err := timedPasses(w, w.coresOne, ref, o.seed, 0, 3, rep)
			if err != nil {
				return nil, err
			}
			m["kernel.par_speedup"] = estimateRatio(seq, passes)
		}
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["runtime.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	m["harness.wall_s"] = time.Since(begin).Seconds()
	rep.Correct = rep.Failed == 0 && len(rep.Mismatched) == 0
	return rep, nil
}

// estimateRatio is the pass estimate of a over that of b, each taken
// over the same number of passes: the estimate falls as passes are
// added, so unequal counts would bias the ratio.
func estimateRatio(a, b [][]time.Duration) float64 {
	n := min(len(a), len(b))
	ea, _ := passEstimate(a[:n])
	eb, _ := passEstimate(b[:n])
	return ea.Seconds() / eb.Seconds()
}

// tracedPasses runs the workload with a span recorder and a metrics
// registry per kernel until the time budget is spent (at least three
// passes). Counts come from the first traced pass, layer times and the
// trace file from the fastest.
func tracedPasses(w workload, ref []result, seed uint64, budget time.Duration, untraced [][]time.Duration, rep *report) error {
	m := rep.Metrics
	var passes [][]time.Duration
	var bestSpans []span
	var bestTotal time.Duration
	begin := time.Now()
	for len(passes) < 3 || time.Since(begin) < budget {
		tr := newTracer()
		times := make([]time.Duration, len(w.cells))
		var total time.Duration
		for i, c := range w.cells {
			tr.cell = i
			e := env{seed: seed, tr: tr}
			t0 := time.Now()
			root := tr.begin(spanCell)
			r, err := c.run(&e)
			tr.end(root)
			times[i] = time.Since(t0)
			total += times[i]
			if err != nil {
				return fmt.Errorf("%s traced cell %s: %w", w.name, c.name, err)
			}
			rep.check(c, r, ref[i])
			if len(passes) == 0 {
				addCounters(m, &e)
			}
		}
		passes = append(passes, times)
		if bestSpans == nil || total < bestTotal {
			bestSpans, bestTotal = tr.spans, total
		}
	}
	m["obs.trace_overhead_pct"] = 100 * (estimateRatio(passes, untraced) - 1)

	rep.trace = bestSpans
	layers := layerTimes(bestSpans)
	for metric, name := range map[string]string{
		"kernel.new_ms":       spanKernelNew,
		"kernel.run_slice_ms": spanKernelRunSlice,
		"kernel.run_ms":       spanKernelRun,
		"kernel.teardown_ms":  spanKernelTeardown,
		"guest.build_ms":      spanGuestBuild,
		"loader.spawn_ms":     spanLoaderSpawn,
		"mech.attach_ms":      spanMechAttach,
		"webbench.boot_ms":    spanWebBoot,
		"webbench.step_ms":    spanWebStep,
		"fleet.run_ms":        spanFleetRun,
	} {
		m[metric] = ms(layers[name].Self)
	}
	m["kernel.run_slices"] = float64(layers[spanKernelRunSlice].Count)
	m["webbench.steps"] = float64(layers[spanWebStep].Count)

	units := float64(rep.Units)
	var syscalls float64
	for name, v := range m {
		if strings.HasPrefix(name, "kernel.dispatch.") && strings.HasSuffix(name, ".calls") {
			syscalls += v
		}
	}
	m["kernel.syscalls_per_unit"] = syscalls / units
	m["cpu.sim_cycles_per_unit"] = m["cpu.cycles_total"] / units
	m["cpu.decode_cache.hit_ratio"] = ratio(m["cpu.decode_cache.hits"], m["cpu.decode_cache.misses"])
	m["cpu.tlb.hit_ratio"] = ratio(m["cpu.tlb.hits"], m["cpu.tlb.misses"])
	m["fleet.ejections"] = m["fleet.lb.ejections"]
	m["fleet.probes_sent"] = m["fleet.lb.probes_sent"]
	return nil
}

// ratio is hits / (hits + misses), 0 when the layer saw no access.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// addCounters adds the counters of every kernel one traced cell built
// into m, under the program's own counter names. Gauges are high-water
// marks, so they combine by maximum.
func addCounters(m map[string]float64, e *env) {
	for _, s := range e.sinks {
		snap := s.Metrics.Snapshot()
		for name, v := range snap.Counters {
			m[name] += float64(v)
		}
		for name, v := range snap.Gauges {
			m[name] = max(m[name], float64(v))
		}
	}
	m["kernel.parallel_rounds"] += float64(e.parRounds)
	m["fleet.sim_p99_cycles"] = max(m["fleet.sim_p99_cycles"], float64(e.p99))
}

// metricMech is a mechanism name made fit for a metric name.
func metricMech(mech string) string { return strings.ReplaceAll(mech, "+", "-") }

// resultLine is the last line of standard output: what the driver reads.
func resultLine(rep *report, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{rep.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
