package otrace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lazypoline/internal/telemetry"
)

func TestIDDeterministicAndWellFormed(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10_000; i++ {
		id := ID(42, i)
		if id != ID(42, i) {
			t.Fatalf("ID(42,%d) not deterministic", i)
		}
		if id == 0 {
			t.Fatalf("ID(42,%d) = 0 (reserved for 'no trace')", i)
		}
		if id == ProbeTrace {
			t.Fatalf("ID(42,%d) collides with ProbeTrace", i)
		}
		if id&maxAttempt != 0 {
			t.Fatalf("ID(42,%d) = %#x has attempt bits set", i, id)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("ID collision: indices %d and %d both map to %#x", prev, i, id)
		}
		seen[id] = i
	}
	if ID(1, 0) == ID(2, 0) {
		t.Error("different seeds produced identical first IDs")
	}
}

func TestCtxPacking(t *testing.T) {
	id := ID(7, 3)
	for _, attempt := range []int{1, 2, maxAttempt} {
		ctx := Ctx(id, attempt)
		if CtxTrace(ctx) != id || CtxAttempt(ctx) != attempt {
			t.Errorf("Ctx(%#x, %d) round-trip: trace %#x attempt %d",
				id, attempt, CtxTrace(ctx), CtxAttempt(ctx))
		}
	}
	if CtxAttempt(Ctx(id, 0)) != 1 {
		t.Error("attempt 0 should clamp to 1")
	}
	if CtxAttempt(Ctx(id, maxAttempt+5)) != maxAttempt {
		t.Error("oversized attempt should saturate")
	}
}

// TestTailSampling exercises every retention reason plus the sampled-out
// path, and checks that the root span is prepended on retention.
func TestTailSampling(t *testing.T) {
	tr := New(Config{LatencyThreshold: 1000})
	tr.SetDrillWindow(5000, 6000)

	cases := []struct {
		name   string
		o      Outcome
		arrive uint64
		want   string // retention reason, "" = sampled out
	}{
		{"fast", Outcome{End: 100, Latency: 10, Attempts: 1}, 90, ""},
		{"lost", Outcome{End: 200, Lost: true, Attempts: 4}, 100, "lost"},
		{"retried", Outcome{End: 300, Latency: 10, Attempts: 2}, 290, "retried"},
		{"slow", Outcome{End: 2000, Latency: 1500, Attempts: 1}, 500, "slow"},
		{"drill", Outcome{End: 5500, Latency: 10, Attempts: 1}, 5490, "drill-window"},
		{"exemplar", Outcome{End: 7000, Latency: 10, Attempts: 1, Exemplar: true}, 6990, "exemplar"},
	}
	for i, c := range cases {
		trace := ID(99, i)
		tr.StartRequest(trace, c.arrive)
		tr.Span(Span{Trace: trace, Kind: KindAttempt, Name: "attempt", Start: c.arrive})
		tr.EndRequest(trace, c.o)
		tree := tr.Tree(trace)
		if c.want == "" {
			if tree != nil {
				t.Errorf("%s: retained (reason %q), want sampled out", c.name, tree.Reason)
			}
			continue
		}
		if tree == nil {
			t.Errorf("%s: sampled out, want retained as %q", c.name, c.want)
			continue
		}
		if tree.Reason != c.want {
			t.Errorf("%s: reason %q, want %q", c.name, tree.Reason, c.want)
		}
		if len(tree.Spans) != 2 || tree.Spans[0].Kind != KindRequest {
			t.Errorf("%s: root span not prepended: %+v", c.name, tree.Spans)
		}
	}
	st := tr.Stats()
	if st.Started != len(cases) || st.Retained != 5 || st.SampledOut != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestTreeAndSpanBudgets drives two trees and two spans per tree past
// the memory budgets.
func TestTreeAndSpanBudgets(t *testing.T) {
	const trees, spans = maxTrees + 2, maxSpansPerTree + 2
	tr := New(Config{LatencyThreshold: 1})
	for i := 0; i < trees; i++ {
		trace := ID(5, i)
		tr.StartRequest(trace, 0)
		for j := 0; j < spans; j++ {
			tr.Span(Span{Trace: trace, Kind: KindSys, Name: "read", Start: uint64(j)})
		}
		tr.EndRequest(trace, Outcome{End: 100, Latency: 100, Attempts: 1})
	}
	st := tr.Stats()
	if st.Retained != maxTrees || st.DroppedTrees != 2 {
		t.Errorf("tree budget: retained %d dropped %d, want %d/2", st.Retained, st.DroppedTrees, maxTrees)
	}
	if st.TruncatedSpans != trees*2 { // 2 spans over budget per tree
		t.Errorf("span budget: truncated %d, want %d", st.TruncatedSpans, trees*2)
	}
	for _, tree := range tr.Trees() {
		if !tree.Truncated {
			t.Error("over-budget tree not marked truncated")
		}
		if len(tree.Spans) != maxSpansPerTree+1 { // root + the buffered spans
			t.Errorf("tree has %d spans, want %d", len(tree.Spans), maxSpansPerTree+1)
		}
	}
	// Orphans: spans for traces that never opened (or already closed).
	tr.Span(Span{Trace: ID(5, 0), Kind: KindSys, Name: "late", Start: 999})
	if tr.Stats().OrphanSpans != 1 {
		t.Errorf("orphan spans = %d, want 1", tr.Stats().OrphanSpans)
	}
}

// TestFlightRecorder: the ring keeps the most recent flightSize kernel
// spans in order, and DumpFlight snapshots oldest-first with the reason.
func TestFlightRecorder(t *testing.T) {
	const spans = flightSize + 3
	tr := New(Config{})
	for i := 0; i < spans; i++ {
		tr.KernelSpan(Span{Kind: KindSys, Name: fmt.Sprintf("sys%d", i), Start: uint64(i)})
	}
	tr.DumpFlight("test", 100)
	events := tr.events
	if len(events) != 1+flightSize { // header + the ring
		t.Fatalf("dump produced %d events, want %d", len(events), 1+flightSize)
	}
	if events[0].Kind != KindFlight || events[0].Note != "test" {
		t.Fatalf("dump header: %+v", events[0])
	}
	for i := 0; i < flightSize; i++ {
		want := fmt.Sprintf("sys%d", spans-flightSize+i)
		got := events[i+1]
		if got.Name != want || got.Kind != KindFlight || got.Note != "test" {
			t.Errorf("ring[%d] = %q (%s/%s), want %q oldest-first", i, got.Name, got.Kind, got.Note, want)
		}
	}
	if tr.Stats().FlightDumps != 1 {
		t.Errorf("FlightDumps = %d", tr.Stats().FlightDumps)
	}
}

// TestExportRoundTrip: every span kind must survive Export →
// EncodeJSONL → DecodeTrace and Export → EncodeChrome → DecodeTrace
// unchanged — the property the lazysim trace round trip leans on.
func TestExportRoundTrip(t *testing.T) {
	tr := New(Config{LatencyThreshold: 1})
	trace := ID(3, 0)
	tr.StartRequest(trace, 10)
	tr.Span(Span{Trace: trace, Ctx: Ctx(trace, 1), Kind: KindAttempt, Name: "attempt", Start: 11})
	tr.Span(Span{Trace: trace, Ctx: Ctx(trace, 1), Kind: KindLB, Name: "route", Start: 12, Note: "backend 1"})
	tr.KernelSpan(Span{Ctx: Ctx(trace, 1), Kind: KindSys, Name: "read", Start: 13, Dur: 40, Lane: 7, Path: "trampoline", Ret: 16})
	tr.Span(Span{Kind: KindDrill, Name: "kill-fire", Start: 14, Note: "backend 2"})
	tr.DumpFlight("roundtrip", 15)
	tr.EndRequest(trace, Outcome{End: 60, Latency: 50, Attempts: 1})

	evs := tr.Export()
	for _, enc := range []struct {
		name   string
		encode func(*bytes.Buffer) error
	}{
		{"jsonl", func(b *bytes.Buffer) error { return telemetry.EncodeJSONL(b, evs) }},
		{"chrome", func(b *bytes.Buffer) error { return telemetry.EncodeChrome(b, evs) }},
	} {
		var buf bytes.Buffer
		if err := enc.encode(&buf); err != nil {
			t.Fatalf("%s encode: %v", enc.name, err)
		}
		got, err := telemetry.DecodeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("%s decode: %v", enc.name, err)
		}
		if !reflect.DeepEqual(evs, got) {
			t.Errorf("%s round-trip changed events:\nwant %+v\ngot  %+v", enc.name, evs, got)
		}
	}
}

// TestTracerInterleaved: eight requests' lifecycles interleaved stage
// by stage (all start, all record spans, all end), with flight dumps in
// between, keep every tree's spans apart and conserve the tree counters:
// the slow requests are retained up to maxTrees, the rest sampled out.
func TestTracerInterleaved(t *testing.T) {
	tr := New(Config{LatencyThreshold: 50})
	const workers = 8
	const perWorker = 200
	for i := 0; i < perWorker; i++ {
		for w := 0; w < workers; w++ {
			tr.StartRequest(ID(uint64(w), i), uint64(i))
		}
		for w := 0; w < workers; w++ {
			trace := ID(uint64(w), i)
			tr.Span(Span{Trace: trace, Kind: KindAttempt, Name: "attempt", Start: uint64(i)})
			tr.KernelSpan(Span{Ctx: Ctx(trace, 1), Kind: KindSys, Name: "read", Start: uint64(i), Dur: 1, Path: "direct"})
		}
		if i%50 == 0 {
			tr.DumpFlight("interleaved", uint64(i))
		}
		for w := 0; w < workers; w++ {
			tr.EndRequest(ID(uint64(w), i), Outcome{End: uint64(i) + uint64(w)*20, Latency: uint64(w) * 20, Attempts: 1})
		}
	}
	// Workers 3..7 are slow (latency >= 50): 1000 trees for 512 slots.
	want := Stats{Started: workers * perWorker, Retained: maxTrees, SampledOut: 3 * perWorker,
		DroppedTrees: 5*perWorker - maxTrees, FlightDumps: perWorker / 50}
	if st := tr.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	for _, tree := range tr.Trees() {
		if len(tree.Spans) != 3 || tree.Spans[1].Trace != tree.Trace || tree.Spans[2].Trace != tree.Trace {
			t.Fatalf("tree %x: spans %+v, want its root, attempt and read", tree.Trace, tree.Spans)
		}
	}
	if evs := tr.Export(); len(evs) == 0 {
		t.Error("empty export")
	}
}

// TestNilTracerIsInert: every producer hook must be callable through a
// nil receiver — that is the whole inertness contract.
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.StartRequest(1<<9, 0)
	tr.Span(Span{Trace: 1 << 9})
	tr.KernelSpan(Span{Ctx: Ctx(1<<9, 1)})
	tr.DumpFlight("nil", 0)
	tr.EndRequest(1<<9, Outcome{})
}
