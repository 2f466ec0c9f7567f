// Package bench regenerates every table and figure of the paper's
// evaluation as Go benchmarks:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the simulation's guest-side metric (cycles per
// syscall, requests per guest-second) via b.ReportMetric, alongside the
// usual host-side ns/op. The per-experiment index lives in DESIGN.md and
// the paper-vs-measured record in EXPERIMENTS.md.
package lazypoline_test

import (
	"fmt"
	"testing"

	"lazypoline/internal/experiments"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/pin"
	"lazypoline/internal/webbench"
)

// benchIters is the microbenchmark loop length per b.N unit. The paper
// uses 100M iterations on hardware; the simulator amortises fixed costs
// within a few thousand.
const benchIters = 5000

// BenchmarkTable2 reproduces Table II: the overhead of interposing a
// non-existent syscall under each mechanism.
func BenchmarkTable2(b *testing.B) {
	for _, mech := range experiments.Table2Mechanisms {
		b.Run(mech, func(b *testing.B) {
			var cyclesPerCall float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Table2Single(mech, benchIters)
				if err != nil {
					b.Fatal(err)
				}
				cyclesPerCall = rows
			}
			b.ReportMetric(cyclesPerCall, "guest-cycles/syscall")
		})
	}
}

// BenchmarkFigure4 reproduces the overhead breakdown: each component of
// lazypoline's cost reported as a metric.
func BenchmarkFigure4(b *testing.B) {
	var r experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure4(benchIters)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.RewritingOver, "rewriting-cycles")
	b.ReportMetric(r.EnablingSUDOver, "enabling-SUD-cycles")
	b.ReportMetric(r.XStateOver, "xstate-cycles")
}

// BenchmarkTable1 reproduces the characteristics matrix probes (the
// efficiency classification is the measured part).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(1000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 reproduces the Pin-like coreutils analysis over both
// libc variants.
func BenchmarkTable3(b *testing.B) {
	var affected int
	for i := 0; i < b.N; i++ {
		rows, err := pin.Table3()
		if err != nil {
			b.Fatal(err)
		}
		affected = 0
		for _, row := range rows {
			if row.UbuntuAffected {
				affected++
			}
		}
	}
	b.ReportMetric(float64(affected), "ubuntu-affected-utils")
}

// BenchmarkExhaustiveness reproduces the §V-A JIT experiment.
func BenchmarkExhaustiveness(b *testing.B) {
	var lazySaw, zpolineSaw bool
	for i := 0; i < b.N; i++ {
		results, err := experiments.Exhaustiveness(0)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Mechanism {
			case experiments.MechLazypoline:
				lazySaw = r.SawJITGetpid
			case experiments.MechZpoline:
				zpolineSaw = r.SawJITGetpid
			}
		}
	}
	if !lazySaw || zpolineSaw {
		b.Fatalf("exhaustiveness inverted: lazypoline=%v zpoline=%v", lazySaw, zpolineSaw)
	}
}

// BenchmarkFigure5 reproduces the web-server macrobenchmark on a
// representative grid: both servers, 1 and 4 workers (12 in the paper;
// reduced to keep bench wall-time reasonable — `lazysim figure5` runs the
// full sweep), small and large files, all mechanisms.
func BenchmarkFigure5(b *testing.B) {
	servers := []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd}
	for _, server := range servers {
		for _, workers := range []int{1, 4} {
			for _, fileSize := range []int{1024, 65536} {
				for _, mech := range experiments.Figure5Mechanisms {
					name := fmt.Sprintf("%s/%dw/%dB/%s", server, workers, fileSize, mech)
					b.Run(name, func(b *testing.B) {
						var tput float64
						for i := 0; i < b.N; i++ {
							res, err := webbench.Run(webbench.Config{
								Style:       server,
								Workers:     workers,
								FileSize:    fileSize,
								Connections: 12,
								Requests:    120,
								Attach:      experiments.AttachFunc(mech),
							})
							if err != nil {
								b.Fatal(err)
							}
							tput = res.Throughput
						}
						b.ReportMetric(tput, "guest-req/s")
					})
				}
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: host time
// per simulated microbenchmark iteration (not a paper figure; useful for
// sizing runs).
func BenchmarkSimulatorThroughput(b *testing.B) {
	prog, err := guest.Microbench(kernel.NonexistentSyscall, int64(b.N)+1)
	if err != nil {
		b.Fatal(err)
	}
	k := kernel.New(kernel.Config{})
	if _, err := prog.Spawn(k); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := k.Run(-1); err != nil {
		b.Fatal(err)
	}
}
