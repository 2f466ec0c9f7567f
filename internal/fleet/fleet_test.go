package fleet

import (
	"reflect"
	"testing"
)

// testConfig is a small, fast farm: light per-request work so capacity
// is high and runs stay short, load sustainable by Backends-1 servers
// (the kill-drill precondition).
func testConfig() Config {
	return Config{
		Backends:     3,
		Workers:      1,
		FileSize:     512,
		AppWorkIters: 600,
		Requests:     120,
		Rate:         25,
		Seed:         42,
	}
}

func runOrFatal(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	t.Logf("%+v", res)
	return res
}

func TestFleetSteadyState(t *testing.T) {
	res := runOrFatal(t, testConfig())
	if res.Completed != res.Requests || res.Lost != 0 {
		t.Fatalf("steady state: completed %d lost %d of %d", res.Completed, res.Lost, res.Requests)
	}
	if res.Retries != 0 {
		t.Errorf("steady state retried %d times", res.Retries)
	}
	if res.P50 == 0 || res.P99 < res.P50 {
		t.Errorf("degenerate percentiles: p50=%d p99=%d", res.P50, res.P99)
	}
	if res.Ejections != 0 || res.Readmissions != 0 {
		t.Errorf("health churn with no drill: ejections=%d readmissions=%d", res.Ejections, res.Readmissions)
	}
	if res.ProbesSent == 0 {
		t.Error("health probes never ran")
	}
}

// TestFleetBackendKillDrill is the acceptance-criteria drill: offered
// load sustainable by N-1 backends, one backend's process tree killed
// mid-run. Every request must complete (zero lost), the dead backend
// must be ejected, and post-drill tail latency must converge back to
// the same order as the pre-drill tail.
func TestFleetBackendKillDrill(t *testing.T) {
	cfg := testConfig()
	cfg.Drill = Drill{Kind: DrillKill, Backend: 1}
	res := runOrFatal(t, cfg)
	if res.Lost != 0 {
		t.Fatalf("kill drill lost %d responses", res.Lost)
	}
	if res.Completed != res.Requests {
		t.Fatalf("kill drill completed %d of %d", res.Completed, res.Requests)
	}
	if res.Ejections < 1 {
		t.Errorf("dead backend never ejected (ejections=%d)", res.Ejections)
	}
	if res.Readmissions != 0 {
		t.Errorf("dead backend readmitted (%d)", res.Readmissions)
	}
	if res.P99Post == 0 || res.P99Pre == 0 {
		t.Fatalf("empty phase percentiles: pre=%d post=%d", res.P99Pre, res.P99Post)
	}
	// Recovery: the post-drill p99 is within a small factor of the
	// undisturbed pre-drill p99 (deterministic, so the bound is tight
	// in practice; 4x leaves headroom for N-1 capacity).
	if res.P99Post > 4*res.P99Pre {
		t.Errorf("p99 did not converge: pre=%d post=%d", res.P99Pre, res.P99Post)
	}
}

func TestFleetRSTStorm(t *testing.T) {
	cfg := testConfig()
	cfg.Drill = Drill{Kind: DrillRST}
	res := runOrFatal(t, cfg)
	if res.Lost != 0 || res.Completed != res.Requests {
		t.Fatalf("RST storm: completed %d lost %d of %d", res.Completed, res.Lost, res.Requests)
	}
	if res.Retries == 0 {
		t.Error("RST storm caused no retries — storm did not fire")
	}
}

func TestFleetSlowBackend(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 150
	cfg.Drill = Drill{Kind: DrillSlow, Backend: 2}
	// Probe timeout sits between the healthy probe RTT (~10k cycles, one
	// idle-tick quantum) and the slowed one (~30k: every segment staged
	// behind a two-reader-poll hold), so the drill trips the health
	// checker without flapping the healthy phases.
	cfg.ProbeInterval = 150_000
	cfg.ProbeTimeout = 20_000
	res := runOrFatal(t, cfg)
	if res.Lost != 0 || res.Completed != res.Requests {
		t.Fatalf("slow drill: completed %d lost %d of %d", res.Completed, res.Lost, res.Requests)
	}
	if res.Ejections < 1 {
		t.Errorf("slow backend never ejected (probes failed: %d)", res.ProbesFailed)
	}
	if res.Readmissions < 1 {
		t.Errorf("recovered backend never readmitted")
	}
}

func TestFleetDrainDrill(t *testing.T) {
	cfg := testConfig()
	cfg.Drill = Drill{Kind: DrillDrain, Backend: 0}
	res := runOrFatal(t, cfg)
	if res.Lost != 0 || res.Completed != res.Requests {
		t.Fatalf("drain drill: completed %d lost %d of %d", res.Completed, res.Lost, res.Requests)
	}
	if res.DrainClosed < 1 {
		t.Error("draining closed no sessions")
	}
}

// TestFleetDeterminism: a farm run is a pure function of its config —
// two runs at the same seed produce identical Results, drill or not,
// with and without the chaos layer underneath.
func TestFleetDeterminism(t *testing.T) {
	cases := map[string]func(*Config){
		"steady": func(c *Config) {},
		"kill":   func(c *Config) { c.Drill = Drill{Kind: DrillKill, Backend: 1} },
		"chaos": func(c *Config) {
			c.ChaosSeed = 7
			c.ChaosRate = 0.002
			c.Drill = Drill{Kind: DrillRST}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Requests = 80
			mutate(&cfg)
			a := runOrFatal(t, cfg)
			b := runOrFatal(t, cfg)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same-seed runs diverged:\n a=%+v\n b=%+v", a, b)
			}
		})
	}
}

// TestFleetSeedSensitivity: different seeds give different arrival
// schedules (the generator is actually seeded, not constant).
func TestFleetSeedSensitivity(t *testing.T) {
	cfg := testConfig()
	cfg.Requests = 60
	a := runOrFatal(t, cfg)
	cfg.Seed = 43
	b := runOrFatal(t, cfg)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seed change did not change the run")
	}
}
