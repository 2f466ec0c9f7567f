package experiments

import (
	"runtime"
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
)

// coldStartAllocs reports what one run of `cat` to exit allocates, fresh
// kernel, file system, load, attach and all — the unit of the benchmark's
// coldstart workload. The first run, which also fills the guest package's
// program cache, is not counted.
func coldStartAllocs(t *testing.T, mech string) (bytesPerRun, objsPerRun float64) {
	t.Helper()
	const measured = 8
	run := func() {
		k := kernel.New(kernel.Config{})
		for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
			if err := k.FS.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for path, contents := range guest.CoreutilFSFiles {
			if err := k.FS.WriteFile(path, []byte(contents), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		prog, err := guest.Coreutil("cat", guest.LibcUbuntu2004(false))
		if err != nil {
			t.Fatal(err)
		}
		task, err := prog.Spawn(k)
		if err != nil {
			t.Fatal(err)
		}
		if attach := AttachFunc(mech); attach != nil {
			if err := attach(k, task); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		if task.ExitCode != 0 {
			t.Fatalf("%s: cat exited %d", mech, task.ExitCode)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / measured,
		float64(after.Mallocs-before.Mallocs) / measured
}

// TestColdStartAllocs is the allocation gate of the cold path (DESIGN.md
// §17): a coreutil run pays for the pages it touches and the blocks it
// executes, not for what it maps or scans. Measured: 120 KiB in 306
// objects under baseline, 348 KiB in 437 under zpoline (whose extra is the
// trampoline page and the long blocks decoded from its nop sled). When
// every mapped page got its 4 KiB at map time and every byte zpoline's
// scan rejected got an error object, the same runs took 433 KiB in 424
// objects and 1048 KiB in 7942; the budgets sit between the two, so either
// coming back fails here.
func TestColdStartAllocs(t *testing.T) {
	for _, c := range []struct {
		mech              string
		maxBytes, maxObjs float64
	}{
		{MechBaseline, 192 << 10, 400},
		{MechZpoline, 512 << 10, 600},
	} {
		b, n := coldStartAllocs(t, c.mech)
		t.Logf("%s: %.0f B in %.0f objects per run", c.mech, b, n)
		if b >= c.maxBytes || n >= c.maxObjs {
			t.Errorf("%s: one cold run allocates %.0f B in %.0f objects, want < %.0f B and < %.0f objects",
				c.mech, b, n, c.maxBytes, c.maxObjs)
		}
	}
}
