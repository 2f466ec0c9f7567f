package experiments

import (
	"encoding/json"
	"sync"
	"testing"

	"lazypoline/internal/fleet"
	"lazypoline/internal/otrace"
)

// fleetBenchJSON runs a FleetBench sweep and returns its marshalled
// rows — the exact bytes a BENCH_fleet.json snapshot would carry.
func fleetBenchJSON(t *testing.T, cfg FleetBenchConfig) []byte {
	t.Helper()
	rows, err := FleetBench(cfg)
	if err != nil {
		t.Fatalf("FleetBench: %v", err)
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestFleetBenchDeterminism: the robustness sweep's snapshot is a pure
// function of its config — two runs at the same seed marshal to
// byte-identical JSON for every (drill, mechanism) cell, serial or
// parallel, chaos layered or not, traced or not (DESIGN.md §9).
func TestFleetBenchDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("farm sweeps are not short")
	}
	small := DefaultFleetBenchConfig()
	small.Requests = 60
	small.Mechanisms = []string{MechBaseline, MechLazypoline}

	cases := map[string]func(*FleetBenchConfig){
		"steady-vs-parallel": func(c *FleetBenchConfig) {
			c.Drills = []fleet.DrillKind{fleet.DrillNone, fleet.DrillKill}
		},
		"chaos": func(c *FleetBenchConfig) {
			c.Drills = []fleet.DrillKind{fleet.DrillRST}
			c.ChaosSeed = 7
			c.ChaosRate = 0.002
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			serial := small
			serial.Parallelism = 1
			mutate(&serial)
			parallel := serial
			parallel.Parallelism = 4

			traced := parallel
			var mu sync.Mutex
			var tracers []*otrace.Tracer
			traced.Trace = func(fleet.DrillKind, string) *otrace.Tracer {
				mu.Lock()
				defer mu.Unlock()
				tracers = append(tracers, otrace.New(otrace.Config{}))
				return tracers[len(tracers)-1]
			}

			a := fleetBenchJSON(t, serial)
			b := fleetBenchJSON(t, serial)
			c := fleetBenchJSON(t, parallel)
			d := fleetBenchJSON(t, traced)
			if string(a) != string(b) {
				t.Fatalf("same-seed sweeps diverged:\n a=%s\n b=%s", a, b)
			}
			if string(a) != string(c) {
				t.Fatalf("parallel sweep diverged from serial:\n serial=%s\n parallel=%s", a, c)
			}
			if string(a) != string(d) {
				t.Fatalf("traced sweep diverged from untraced:\n untraced=%s\n traced=%s", a, d)
			}
			for _, tr := range tracers {
				if tr.Stats().Started == 0 {
					t.Fatal("a traced cell opened no request: tracing never engaged")
				}
			}
		})
	}
}

// TestFleetBenchKillGate pins the acceptance drill at snapshot scale:
// with offered load sustainable by Backends-1 servers, killing a backend
// mid-run loses nothing under any mechanism.
func TestFleetBenchKillGate(t *testing.T) {
	if testing.Short() {
		t.Skip("farm sweeps are not short")
	}
	cfg := DefaultFleetBenchConfig()
	cfg.Requests = 80
	cfg.Drills = []fleet.DrillKind{fleet.DrillKill}
	rows, err := FleetBench(cfg)
	if err != nil {
		t.Fatalf("FleetBench: %v", err)
	}
	for _, row := range rows {
		if row.Lost != 0 || row.Completed != row.Requests {
			t.Errorf("%s/%s: completed %d lost %d of %d",
				row.Drill, row.Mechanism, row.Completed, row.Lost, row.Requests)
		}
		if row.Ejections < 1 {
			t.Errorf("%s/%s: dead backend never ejected", row.Drill, row.Mechanism)
		}
	}
}
