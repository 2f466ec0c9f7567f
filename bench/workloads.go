package main

import (
	"math"
	"runtime"

	"lazypoline/internal/experiments"
	"lazypoline/internal/guest"
)

// workload is a fixed list of cells. Cell definitions never depend on
// flags: -workload only selects among them.
type workload struct {
	name string
	// unit is what one unit of work is; every per-unit metric divides by
	// the sum of the cells' units.
	unit string
	// loop says how load is offered, as README.md explains it.
	loop  string
	cells []cell
	// seeded marks a workload whose inputs, and so whose simulated
	// results, follow -seed; the others are fixed programs.
	seeded bool
	// coresOne, when set, is the same cells on the sequential scheduler:
	// the base of kernel.par_speedup.
	coresOne []cell
	// paperErr, when set, is the largest relative error, in percent, of
	// the cells' simulated values against the paper values recorded in
	// EXPERIMENTS.md. Workloads without it are unvalidated against the
	// paper and report no error figure.
	paperErr func(values map[string]float64) float64
}

func (w workload) units() int {
	n := 0
	for _, c := range w.cells {
		n += c.units
	}
	return n
}

// largeCores is the Cores setting of f5_large_cores.
func largeCores() int { return min(runtime.NumCPU(), 4) }

var webStyles = []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd}

// allMechs is every mechanism row, in the order metrics list them.
var allMechs = []string{
	experiments.MechBaseline, experiments.MechZpoline, experiments.MechLazypolineNX,
	experiments.MechLazypoline, experiments.MechSUD, experiments.MechBaselineSUD,
	experiments.MechSeccompUser, experiments.MechPtrace, experiments.MechLazypolineMPK,
}

func webCells(sizes []int, workers int, mechs []string, cores int) []cell {
	var cells []cell
	for _, style := range webStyles {
		for _, size := range sizes {
			for _, mech := range mechs {
				cells = append(cells, webCell(style, size, workers, mech, cores))
			}
		}
	}
	return cells
}

func workloads() []workload {
	smallSizes := []int{64, 1024}
	largeSizes := []int{64 << 10, 256 << 10}
	largeMechs := []string{experiments.MechBaseline, experiments.MechLazypoline, experiments.MechSUD}

	var micro, cold, drills []cell
	for _, mech := range allMechs {
		micro = append(micro, microCell(mech))
	}
	for _, util := range guest.CoreutilNames {
		cold = append(cold, coreutilCell(util))
	}
	for _, drill := range experiments.FleetBenchDrills {
		for _, mech := range experiments.FleetBenchMechanisms {
			drills = append(drills, fleetCell(len(drills), drill, mech))
		}
	}

	return []workload{
		{
			name: "f5_small", unit: "request", loop: "closed, 36 keep-alive connections",
			cells: webCells(smallSizes, 1, experiments.Figure5Mechanisms, 1),
			paperErr: func(v map[string]float64) float64 {
				// "in the very worst case lazypoline-noxstate maintains
				// 94.72% of baseline in nginx / 94.81% in lighttpd"; the
				// worst case here is over the two sizes this workload runs.
				paper := map[guest.ServerStyle]float64{guest.StyleNginx: 94.72, guest.StyleLighttpd: 94.81}
				worst := 0.0
				for _, style := range webStyles {
					rel := math.Inf(1)
					for _, size := range smallSizes {
						nx := v[webCellName(style, size, 1, experiments.MechLazypolineNX)]
						base := v[webCellName(style, size, 1, experiments.MechBaseline)]
						rel = math.Min(rel, 100*nx/base)
					}
					worst = math.Max(worst, 100*math.Abs(rel-paper[style])/paper[style])
				}
				return worst
			},
		},
		{
			name: "f5_large", unit: "request", loop: "closed, 36 keep-alive connections",
			cells: webCells(largeSizes, 12, largeMechs, 1),
		},
		{
			name: "f5_large_cores", unit: "request", loop: "closed, 36 keep-alive connections",
			cells:    webCells(largeSizes, 12, largeMechs, largeCores()),
			coresOne: webCells(largeSizes, 12, largeMechs, 1),
		},
		{
			name: "sysmicro", unit: "interposed syscall", loop: "single guest, no network",
			cells: micro,
			paperErr: func(v map[string]float64) float64 {
				// The four Table II overheads legible in the paper.
				paper := map[string]float64{
					experiments.MechLazypolineNX: 1.66,
					experiments.MechLazypoline:   2.38,
					experiments.MechSUD:          20.8,
					experiments.MechBaselineSUD:  1.42,
				}
				worst := 0.0
				for mech, want := range paper {
					got := v[mech] / v[experiments.MechBaseline]
					worst = math.Max(worst, 100*math.Abs(got-want)/want)
				}
				return worst
			},
		},
		{
			name: "coldstart", unit: "guest run", loop: "fresh kernel per run, run to exit",
			cells: cold,
		},
		{
			name: "fleet_drills", unit: "offered request", loop: "open, seeded Poisson arrivals in virtual time, 25 requests/Mcycle",
			cells: drills, seeded: true,
		},
	}
}
