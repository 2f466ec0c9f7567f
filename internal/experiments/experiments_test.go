package experiments

import (
	"math"
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
)

const microIters = 2000

// TestTable2Calibration checks the measured microbenchmark overheads
// against the paper's Table II with generous bands — the shape must
// hold, not the exact decimals.
func TestTable2Calibration(t *testing.T) {
	rows, err := Table2(microIters, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range rows {
		got[r.Mechanism] = r.Overhead
		t.Logf("%-22s %8.1f cyc %6.2fx", r.Mechanism, r.CyclesPerCall, r.Overhead)
	}
	checks := []struct {
		mech     string
		lo, hi   float64
		paperVal float64
	}{
		{MechLazypolineNX, 1.45, 1.95, 1.66},
		{MechLazypoline, 2.0, 2.8, 2.38},
		{MechSUD, 16, 26, 20.8},
		{MechBaselineSUD, 1.3, 1.55, 1.42},
		{MechZpoline, 1.05, 1.45, 0}, // value cropped in the source text
	}
	for _, c := range checks {
		v := got[c.mech]
		if v < c.lo || v > c.hi {
			t.Errorf("%s overhead = %.2fx, want within [%.2f, %.2f] (paper: %.2fx)",
				c.mech, v, c.lo, c.hi, c.paperVal)
		}
	}
	// Ordering invariant.
	if !(got[MechBaselineSUD] > 1 &&
		got[MechZpoline] < got[MechLazypolineNX] &&
		got[MechLazypolineNX] < got[MechLazypoline] &&
		got[MechLazypoline] < got[MechSUD]) {
		t.Error("Table II ordering violated")
	}
}

func TestFigure4Breakdown(t *testing.T) {
	r, err := Figure4(microIters)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline=%.1f zpoline=%.1f noxstate=%.1f full=%.1f fastpath-noSUD=%.1f",
		r.BaselineCycles, r.ZpolineCycles, r.NoXStateCycles, r.FullCycles, r.FastPathNoSUD)
	t.Logf("components: rewriting=%.1f enablingSUD=%.1f xstate=%.1f",
		r.RewritingOver, r.EnablingSUDOver, r.XStateOver)

	// The paper's Figure 4 claims:
	// (1) with SUD disabled, lazypoline's fast path matches zpoline;
	if math.Abs(r.FastPathNoSUD-r.ZpolineCycles) > 0.01*r.ZpolineCycles {
		t.Errorf("fast path w/o SUD (%.1f) != zpoline (%.1f)", r.FastPathNoSUD, r.ZpolineCycles)
	}
	// (2) the SUD-enabling component equals the kernel's intercept-check
	//     plus selector-read cost;
	c := kernel.DefaultCostModel()
	wantSUD := float64(c.InterceptCheck + c.SUDSelectorRead)
	if math.Abs(r.EnablingSUDOver-wantSUD) > 10 {
		t.Errorf("enabling-SUD component = %.1f, want ~%.1f", r.EnablingSUDOver, wantSUD)
	}
	// (3) xstate preservation is the largest single component of
	//     lazypoline's overhead over baseline.
	if r.XStateOver < r.RewritingOver || r.XStateOver < r.EnablingSUDOver {
		t.Errorf("xstate (%.1f) should dominate rewriting (%.1f) and SUD (%.1f)",
			r.XStateOver, r.RewritingOver, r.EnablingSUDOver)
	}
}

func TestExhaustivenessMatchesPaper(t *testing.T) {
	results, err := Exhaustiveness(0)
	if err != nil {
		t.Fatal(err)
	}
	byMech := map[string]ExhaustivenessResult{}
	for _, r := range results {
		byMech[r.Mechanism] = r
		t.Logf("%-12s jit-getpid=%v complete=%v (%d syscalls traced)",
			r.Mechanism, r.SawJITGetpid, r.MatchesGroundTruth, len(r.Trace))
	}
	// SUD and lazypoline print the same syscalls, including the JIT
	// getpid; zpoline's trace does not include it (§V-A).
	if !byMech[MechSUD].SawJITGetpid {
		t.Error("SUD missed the JIT getpid")
	}
	if !byMech[MechLazypoline].SawJITGetpid {
		t.Error("lazypoline missed the JIT getpid")
	}
	if byMech[MechZpoline].SawJITGetpid {
		t.Error("zpoline saw the JIT getpid — static rewriting should not")
	}
	if !byMech[MechSUD].MatchesGroundTruth {
		t.Errorf("SUD trace incomplete: %s", byMech[MechSUD].Diff)
	}
	if !byMech[MechLazypoline].MatchesGroundTruth {
		t.Errorf("lazypoline trace incomplete: %s", byMech[MechLazypoline].Diff)
	}
	if byMech[MechZpoline].MatchesGroundTruth {
		t.Error("zpoline trace should be incomplete")
	}
}

func TestTable1Matrix(t *testing.T) {
	rows, err := Table1(500, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Table1Row{
		MechPtrace:      {Expressive: true, Exhaustive: true, Efficiency: "Low"},
		"seccomp-bpf":   {Expressive: false, Exhaustive: true, Efficiency: "High"},
		MechSeccompUser: {Expressive: true, Exhaustive: true, Efficiency: "Moderate"},
		MechSUD:         {Expressive: true, Exhaustive: true, Efficiency: "Moderate"},
		MechZpoline:     {Expressive: true, Exhaustive: false, Efficiency: "High"},
		MechLazypoline:  {Expressive: true, Exhaustive: true, Efficiency: "High"},
	}
	for _, r := range rows {
		t.Logf("%-14s expressive=%-5v exhaustive=%-5v efficiency=%-8s (%.1fx)",
			r.Mechanism, r.Expressive, r.Exhaustive, r.Efficiency, r.Overhead)
		w := want[r.Mechanism]
		if r.Expressive != w.Expressive {
			t.Errorf("%s: expressive=%v, want %v", r.Mechanism, r.Expressive, w.Expressive)
		}
		if r.Exhaustive != w.Exhaustive {
			t.Errorf("%s: exhaustive=%v, want %v", r.Mechanism, r.Exhaustive, w.Exhaustive)
		}
		if r.Efficiency != w.Efficiency {
			t.Errorf("%s: efficiency=%s (%.1fx), want %s", r.Mechanism, r.Efficiency, r.Overhead, w.Efficiency)
		}
	}
}

// TestFigure5SmallSweep runs a reduced sweep and validates the headline
// macro claims on the most syscall-intensive configuration.
func TestFigure5SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("macro sweep")
	}
	points, err := Figure5(Figure5Config{
		FileSizes:       []int{1024, 64 * 1024},
		Workers:         []int{1},
		Servers:         []guest.ServerStyle{guest.StyleNginx},
		Requests:        160,
		Connections:     8,
		ClientCapFactor: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	rel := map[int]map[string]float64{}
	for _, p := range points {
		if rel[p.FileSize] == nil {
			rel[p.FileSize] = map[string]float64{}
		}
		rel[p.FileSize][p.Mechanism] = p.Relative
		t.Logf("%s %dw %6dB %-22s %10.0f req/s (%.3f rel)",
			p.Server, p.Workers, p.FileSize, p.Mechanism, p.Throughput, p.Relative)
	}
	small := rel[1024]
	if small[MechLazypolineNX] < 0.88 {
		t.Errorf("1KB lazypoline-noxstate = %.3f, want >= 0.88 (paper: >=0.947)", small[MechLazypolineNX])
	}
	if small[MechSUD] > 0.65 {
		t.Errorf("1KB SUD = %.3f, expected a much larger hit", small[MechSUD])
	}
	// Differences fade with size: the zpoline/lazypoline gap at 64KB
	// must be smaller than at 1KB (§V-B: "from 64 KB on, the overhead
	// difference ... practically vanishes").
	gapSmall := small[MechZpoline] - small[MechLazypolineNX]
	gapBig := rel[64*1024][MechZpoline] - rel[64*1024][MechLazypolineNX]
	if gapBig > gapSmall {
		t.Errorf("zpoline/lazypoline gap grew with file size: %.3f -> %.3f", gapSmall, gapBig)
	}
}
