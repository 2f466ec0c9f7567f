package main

import (
	"encoding/json"
	"testing"
	"time"

	"lazypoline/internal/experiments"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/webbench"
)

// The per-layer numbers come from a re-creation of webbench.Run's loop;
// they describe the program the end-to-end numbers measure only if the
// two return the same Result, sink or no sink.
func TestTracedWebRunMatchesRun(t *testing.T) {
	for _, style := range webStyles {
		cfg := webbench.Config{
			Style: style, Workers: 1, FileSize: 1024,
			Connections: webConnections, Requests: webRequests,
			Attach: experiments.AttachFunc(experiments.MechLazypoline),
		}
		want, err := webbench.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := tracedWebRun(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s traced without sink: got %+v, want %+v", style, got, want)
		}
		if len(tr.open) != 0 || len(tr.spans) == 0 {
			t.Errorf("%s: %d spans recorded, %d left open", style, len(tr.spans), len(tr.open))
		}
		cfg.Telemetry = &telemetry.Sink{Metrics: telemetry.NewRegistry()}
		got, err = tracedWebRun(cfg, newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s traced with sink: got %+v, want %+v", style, got, want)
		}
		if n := cfg.Telemetry.Metrics.Snapshot().Counters["net.conns_accepted"]; n == 0 {
			t.Errorf("%s: the sink saw no accepted connection", style)
		}
	}
}

// Table II rewrites lazypoline's sites up front; the traced re-creation
// attaches those rows itself and must land on the same cycles per call.
func TestTracedMicroRunMatchesTable2Single(t *testing.T) {
	for _, mech := range []string{
		experiments.MechZpoline, experiments.MechLazypolineNX,
		experiments.MechLazypoline, experiments.MechLazypolineMPK,
	} {
		want, err := experiments.Table2Single(mech, microIters)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedMicroRun(mech, &env{tr: newTracer()})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: traced %v cycles/call, Table2Single %v", mech, got, want)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []struct {
		key  string
		file []benchmarkMetric
		prog []metricDef
	}{{"end_to_end", bf.EndToEnd, endToEnd}, {"per_layer", bf.PerLayer, perLayer}} {
		if len(table.file) != len(table.prog) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(table.file), table.key, len(table.prog))
		}
		for i, d := range table.prog {
			if got := (metricDef{table.file[i].Name, table.file[i].Unit, table.file[i].Better}); got != d {
				t.Errorf("%s[%d] = %v, the program has %v", table.key, i, got, d)
			}
		}
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %q, the program has %q", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// Every mechanism a cell can name has its mech.<m>.cell_ms metric.
func TestEveryMechanismHasACellMetric(t *testing.T) {
	defined := make(map[string]bool)
	for _, d := range perLayer {
		defined[d.name] = true
	}
	for _, w := range workloads() {
		for _, c := range w.cells {
			if name := "mech." + metricMech(c.mech) + ".cell_ms"; c.mech != "" && !defined[name] {
				t.Errorf("%s cell %s: no per-layer metric %s", w.name, c.name, name)
			}
		}
	}
}

func readGolden(t *testing.T, name string) golden {
	t.Helper()
	b, err := goldenFS.ReadFile("golden/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// The scheduler's core count is execution machinery: the two goldens,
// generated apart, must hold the same simulated results.
func TestGoldenSameAtAnyCoreCount(t *testing.T) {
	one, many := readGolden(t, "f5_large"), readGolden(t, "f5_large_cores")
	if len(one.Cells) != len(many.Cells) {
		t.Fatalf("%d cells against %d", len(one.Cells), len(many.Cells))
	}
	for i := range one.Cells {
		if one.Cells[i] != many.Cells[i] {
			t.Errorf("cell %d: %v at one core, %v at several", i, one.Cells[i], many.Cells[i])
		}
	}
}

func TestCheckGolden(t *testing.T) {
	ws, err := selectWorkloads("sysmicro")
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	g := readGolden(t, w.name)
	ref := make([]result, len(g.Cells))
	for i, c := range g.Cells {
		ref[i].digest = c.Digest
	}
	if bad, err := checkGolden(w, ref); err != nil || len(bad) != 0 {
		t.Errorf("golden against itself: mismatched %v, err %v", bad, err)
	}
	ref[2].digest = "cycles_per_call=1"
	if bad, err := checkGolden(w, ref); err != nil || len(bad) != 1 || bad[0] != w.cells[2].name {
		t.Errorf("one changed cell: mismatched %v, err %v", bad, err)
	}
	w.cells = w.cells[1:]
	if _, err := checkGolden(w, ref[1:]); err == nil {
		t.Error("a golden with another cell list passed as current")
	}
	w.name = "nosuch"
	if _, err := checkGolden(w, ref[1:]); err == nil {
		t.Error("a missing golden passed")
	}
}

func TestLayerTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "outer", Start: 0, End: 100, Parent: -1},
		{Name: "inner", Start: 10, End: 40, Parent: 0},
		{Name: "inner", Start: 50, End: 60, Parent: 0},
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	lt := layerTimes(spans)
	if got := lt["outer"]; got.Total != 100 || got.Self != 60 || got.Count != 1 {
		t.Errorf("outer = %+v", got)
	}
	if got := lt["inner"]; got.Total != 40 || got.Self != 32 || got.Count != 2 {
		t.Errorf("inner = %+v", got)
	}
}

func TestTracerNestsAndNilIsInert(t *testing.T) {
	var off *tracer
	off.end(off.begin("x")) // must not panic
	tr := newTracer()
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	c := tr.begin("c")
	tr.end(c)
	if tr.spans[b].Parent != a || tr.spans[a].Parent != -1 || tr.spans[c].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
}

func TestCellEstimateAndPercentiles(t *testing.T) {
	// Nine passes: the fastest quarter of a cell's runs is three of them.
	var passes [][]time.Duration
	for _, d := range []time.Duration{90, 20, 50, 10, 70, 30, 80, 60, 40} {
		passes = append(passes, []time.Duration{d, 1000 - d})
	}
	total, per := passEstimate(passes)
	if per[0] != 20 || per[1] != 920 || total != 940 {
		t.Errorf("passEstimate = %v %v, want 940 [20 920]", total, per)
	}
	// Three passes: never fewer than two runs.
	if _, per := passEstimate(passes[:3]); per[0] != 35 {
		t.Errorf("passEstimate of 3 passes = %v, want the mean of 20 and 50", per[0])
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if v, pct := highPercentile([]float64{1, 2, 3}); v != 3 || pct != 100 {
		t.Errorf("highPercentile of 3 samples = %v at p%v", v, pct)
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := highPercentile(xs); v != 29 || pct != 75 {
		t.Errorf("highPercentile of 40 samples = %v at p%v, want 29 at p75", v, pct)
	}
}
