package experiments

import (
	"reflect"
	"strings"
	"testing"

	"lazypoline/internal/guest"
)

// smallFigure5Config is a sweep small enough for unit tests that still
// exercises multi-worker capping and baseline normalisation.
func smallFigure5Config() Figure5Config {
	return Figure5Config{
		FileSizes:       []int{1024},
		Workers:         []int{1, 12},
		Servers:         []guest.ServerStyle{guest.StyleNginx},
		Mechanisms:      []string{MechBaseline, MechZpoline},
		Requests:        48,
		Connections:     12,
		ClientCapFactor: 4,
		Parallelism:     1,
	}
}

type figure5Key struct {
	server    string
	workers   int
	fileSize  int
	mechanism string
}

func pointsByCell(t *testing.T, points []Figure5Point) map[figure5Key]Figure5Point {
	t.Helper()
	m := make(map[figure5Key]Figure5Point, len(points))
	for _, p := range points {
		k := figure5Key{p.Server, p.Workers, p.FileSize, p.Mechanism}
		if _, dup := m[k]; dup {
			t.Fatalf("duplicate cell %+v", k)
		}
		m[k] = p
	}
	return m
}

// TestFigure5SweepOrderIndependence is the regression test for the
// sweep-order baseline bugs: a caller passing Workers {12, 1} and a
// mechanism list with the baseline last must get exactly the same
// per-cell numbers — client capping and Relative normalisation included —
// as the canonical {1, 12} / baseline-first ordering.
func TestFigure5SweepOrderIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("macro sweep")
	}
	canonical := smallFigure5Config()
	reordered := canonical
	reordered.Workers = []int{12, 1}
	reordered.Mechanisms = []string{MechZpoline, MechBaseline}

	want, err := Figure5(canonical)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Figure5(reordered)
	if err != nil {
		t.Fatal(err)
	}
	wantBy, gotBy := pointsByCell(t, want), pointsByCell(t, got)
	if len(wantBy) != len(gotBy) {
		t.Fatalf("cell count %d != %d", len(gotBy), len(wantBy))
	}

	capped := false
	for k, w := range wantBy {
		g, ok := gotBy[k]
		if !ok {
			t.Fatalf("reordered sweep missing cell %+v", k)
		}
		if g != w {
			t.Errorf("cell %+v: reordered %+v != canonical %+v", k, g, w)
		}
		if w.Relative <= 0 {
			t.Errorf("cell %+v: Relative = %g, must be > 0", k, w.Relative)
		}
		capped = capped || w.ClientCapped
	}
	// The configuration is chosen so the 12-worker cells hit the client
	// capacity cap; if none did, the test lost its teeth.
	if !capped {
		t.Error("no cell was client-capped; the sweep no longer exercises ClientCapFactor")
	}
	// Order within each run is still the configured plot order.
	if want[0].Workers != 1 || got[0].Workers != 12 {
		t.Errorf("plot order should follow the config: want[0].Workers=%d got[0].Workers=%d",
			want[0].Workers, got[0].Workers)
	}
}

// TestFigure5ParallelDeterminism: the same sweep at pool widths 1 and 8
// yields identical points — the per-cell isolation contract in action —
// and so does a sweep with a telemetry registry in every cell (DESIGN.md
// §9; webbench.TestRequestTracerIsInert holds the request tracer).
func TestFigure5ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("macro sweep")
	}
	cfg := smallFigure5Config()
	cfg.Parallelism = 1
	serial, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	parallel, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}

	got, metrics, err := Figure5WithMetrics(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, got) {
		t.Errorf("instrumented sweep diverged from plain:\nplain:        %+v\ninstrumented: %+v", serial, got)
	}
	// The breakdown was recorded: zpoline's cells dispatch through the
	// trampoline.
	trampoline := false
	for _, m := range metrics {
		for _, p := range m.Paths {
			trampoline = trampoline || (m.Mechanism == MechZpoline && p.Path == "trampoline" && p.Calls > 0)
		}
	}
	if !trampoline {
		t.Errorf("no zpoline cell recorded trampoline dispatches: %+v", metrics)
	}
}

// TestFigure5MissingBaselineError: a mechanism list without the baseline
// cannot be normalised and must fail loudly instead of emitting
// Relative == 0 points.
func TestFigure5MissingBaselineError(t *testing.T) {
	cfg := smallFigure5Config()
	cfg.Mechanisms = []string{MechZpoline}
	_, err := Figure5(cfg)
	if err == nil {
		t.Fatal("want error for baseline-less mechanism list, got nil")
	}
	if !strings.Contains(err.Error(), MechBaseline) {
		t.Errorf("error %q should name the missing %q mechanism", err, MechBaseline)
	}
}

// TestFigure5CapNeedsSingleWorker: enabling the client capacity cap
// without a workers==1 configuration to anchor it is a config error.
func TestFigure5CapNeedsSingleWorker(t *testing.T) {
	cfg := smallFigure5Config()
	cfg.Workers = []int{12}
	_, err := Figure5(cfg)
	if err == nil {
		t.Fatal("want error for cap without a workers==1 anchor, got nil")
	}
	if !strings.Contains(err.Error(), "workers==1") {
		t.Errorf("error %q should explain the missing workers==1 anchor", err)
	}
}
