package experiments

import (
	"testing"

	"lazypoline/internal/fleet"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/webbench"
)

// privateDecodes sums the blocks decoded from private pages by every
// task k has run, the exited ones too, from the task with ID first on
// (task IDs are issued in order).
func privateDecodes(k *kernel.Kernel, first int) (n uint64) {
	for id := first; ; id++ {
		t, ok := k.Task(id)
		if !ok {
			return n
		}
		n += t.CPU.PrivateDecodes()
	}
}

// recordKernel wraps attach (nil for baseline) so it also records the
// kernel and the first master it attaches to.
func recordKernel(mech string, k **kernel.Kernel, first *int) func(*kernel.Kernel, *kernel.Task) error {
	attach := AttachFunc(mech)
	return func(kk *kernel.Kernel, master *kernel.Task) error {
		if *k == nil {
			*k, *first = kk, master.ID
		}
		if attach == nil {
			return nil
		}
		return attach(kk, master)
	}
}

// TestNoPrivateDecodes: the cells of the benchmark's serving, fleet and
// cold-start workloads decode no block from a private page. Every page a
// mechanism rewrites — lazypoline's sites at SIGSYS time, zpoline's at
// attach, the stub pages — ends its rewrite with an mprotect to R-X,
// which seals it into a frame (DESIGN.md §4), so its blocks are decoded
// once per process and shared by every task that runs it.
func TestNoPrivateDecodes(t *testing.T) {
	check := func(name string, k *kernel.Kernel, first int) {
		t.Helper()
		if k == nil {
			t.Fatalf("%s: no kernel recorded", name)
		}
		if n := privateDecodes(k, first); n != 0 {
			t.Errorf("%s: %d blocks decoded from private pages, want 0", name, n)
		}
	}
	for _, mech := range []string{MechBaseline, MechZpoline, MechLazypolineNX, MechLazypoline, MechSUD, MechSeccompUser, MechPtrace} {
		k, task, err := coldCat(mech)
		if err != nil {
			t.Fatal(err)
		}
		check("cold cat/"+mech, k, task.ID)
	}
	type web struct {
		size, workers int
		mechs         []string
	}
	for _, c := range []web{
		{1024, 1, Figure5Mechanisms},
		{64 << 10, 12, []string{MechBaseline, MechLazypoline, MechSUD}},
	} {
		for _, style := range []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd} {
			for _, mech := range c.mechs {
				var k *kernel.Kernel
				var first int
				_, err := webbench.Run(webbench.Config{
					Style: style, Workers: c.workers, FileSize: c.size,
					Connections: 12, Requests: 24,
					Attach: recordKernel(mech, &k, &first),
				})
				if err != nil {
					t.Fatal(err)
				}
				check(style.String()+"/"+mech, k, first)
			}
		}
	}
	for _, mech := range FleetBenchMechanisms {
		var k *kernel.Kernel
		var first int
		_, err := fleet.Run(fleet.Config{
			Backends: 2, FileSize: 512, AppWorkIters: 50, Requests: 20, Seed: 42,
			Drill:  fleet.Drill{Kind: fleet.DrillKill, Backend: 1},
			Attach: recordKernel(mech, &k, &first),
		})
		if err != nil {
			t.Fatal(err)
		}
		check("fleet/"+mech, k, first)
	}
}
