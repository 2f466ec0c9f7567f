package fleet

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
)

// traceKillConfig is the acceptance-gate farm: a kill drill under
// enough offered load and per-request work that requests are reliably
// in flight on the dying backend — so the trace must show client
// retries routed through the balancer. A retried request pays a failed
// attempt and a backoff on top of a full exchange, so retried requests
// are the slowest: the top histogram bucket's exemplar must resolve to
// a retried tree.
func traceKillConfig() Config {
	cfg := testConfig()
	cfg.Requests = 100
	cfg.Rate = 100
	cfg.AppWorkIters = 20_000
	cfg.Drill = Drill{Kind: DrillKill, Backend: 2}
	return cfg
}

// TestFleetTraceInertness: attaching a tracer must not change a single
// field of the Result (TraceStats aside — that field IS the tracer's
// output). This is the plane's half of the DESIGN.md §9 contract;
// experiments.TestFleetBenchDeterminism is the snapshot half.
func TestFleetTraceInertness(t *testing.T) {
	cfg := traceKillConfig()
	plain := runOrFatal(t, cfg)

	cfg.Trace = otrace.New(otrace.Config{})
	traced := runOrFatal(t, cfg)

	if traced.TraceStats.Started == 0 {
		t.Fatal("tracer attached but no requests traced")
	}
	traced.TraceStats = otrace.Stats{}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracer changed the run:\nplain  %+v\ntraced %+v", plain, traced)
	}
}

// TestFleetTraceDeterminism: same (config, seed) ⇒ byte-identical trace
// files, the export half of the determinism contract.
func TestFleetTraceDeterminism(t *testing.T) {
	export := func() []byte {
		cfg := traceKillConfig()
		cfg.Trace = otrace.New(otrace.Config{})
		runOrFatal(t, cfg)
		var buf bytes.Buffer
		if err := telemetry.EncodeJSONL(&buf, cfg.Trace.Export()); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("same-seed runs exported different trace files")
	}
}

// TestFleetTraceKillDrillExemplar is the PR's acceptance criterion: a
// p99 latency-histogram exemplar from the kill drill must resolve to a
// complete span tree — request root, an LB retry span (the re-routed
// attempt after the backend died), and per-syscall kernel spans with
// dispatch-path attribution.
func TestFleetTraceKillDrillExemplar(t *testing.T) {
	cfg := traceKillConfig()
	tr := otrace.New(otrace.Config{})
	cfg.Trace = tr
	res := runOrFatal(t, cfg)

	if res.Retries == 0 {
		t.Fatal("kill drill produced no retries; the acceptance config must keep requests in flight on the dying backend")
	}
	if len(res.ExemplarBuckets) == 0 {
		t.Fatal("no histogram exemplars recorded")
	}
	// The top bucket's exemplar is the slowest completed request — under
	// a kill drill, a retried one. p99 lives in (or below) this bucket.
	top := res.ExemplarBuckets[len(res.ExemplarBuckets)-1]
	trace, err := strconv.ParseUint(top.Trace, 16, 64)
	if err != nil {
		t.Fatalf("exemplar trace %q: %v", top.Trace, err)
	}
	tree := tr.Tree(trace)
	if tree == nil {
		t.Fatalf("exemplar trace %s has no retained tree (reasons: %v)", top.Trace, retentionReasons(tr))
	}
	if tree.Outcome.Latency != top.Value {
		t.Errorf("exemplar value %d != tree latency %d", top.Value, tree.Outcome.Latency)
	}
	if tree.Outcome.Attempts < 2 {
		t.Errorf("slowest request was not retried (attempts=%d)", tree.Outcome.Attempts)
	}

	var root, lbRetry, sysAttributed bool
	for _, s := range tree.Spans {
		switch {
		case s.Kind == otrace.KindRequest:
			root = true
		case s.Kind == otrace.KindLB && s.Name == "retry":
			lbRetry = true
		case s.Kind == otrace.KindSys && s.Path != "" && s.Name != "":
			sysAttributed = true
		}
	}
	if !root {
		t.Error("tree lacks its request root span")
	}
	if !lbRetry {
		t.Errorf("tree lacks an LB retry span; spans: %v", spanNames(tree.Spans))
	}
	if !sysAttributed {
		t.Errorf("tree lacks dispatch-path-attributed kernel spans; spans: %v", spanNames(tree.Spans))
	}

	// The kill must also have dumped the flight recorder.
	if tr.Stats().FlightDumps == 0 {
		t.Error("KillTree never dumped the flight recorder")
	}
	// And the SLO report must cover all three drill phases.
	if len(res.SLO.Phases) != 3 || res.SLO.Good+res.SLO.Bad != res.Requests {
		t.Errorf("SLO report malformed: %+v", res.SLO)
	}
}

func spanNames(spans []otrace.Span) []string {
	var out []string
	for _, s := range spans {
		out = append(out, s.Kind+"/"+s.Name)
	}
	return out
}

func retentionReasons(tr *otrace.Tracer) map[string]int {
	out := map[string]int{}
	for _, t := range tr.Trees() {
		out[t.Reason]++
	}
	return out
}
