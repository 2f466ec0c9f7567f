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
// executes, not for what it maps, loads as zeros or scans. Measured: 46 KiB
// in 248 objects under baseline, 125 KiB in 326 under zpoline (whose extra
// is the trampoline page and three decodes of its nop sled, at each entry
// below all earlier ones; the other entries are views). While the loader wrote
// the all-zero data segment (16 pages of backing), each block build
// fetched the rest of its page into a per-CPU 4 KiB buffer and every sled
// entry point decoded the sled again, the same runs took 120 KiB in 306
// objects and 347 KiB in 415; the budgets sit between the two, so any of
// those coming back fails here.
//
// Under -race, sync.Pool drops a share of what is put back and builds
// allocate fresh scratch for it: 85–88 KiB in 300–303 objects and
// 283–337 KiB in 406–439. There the budgets are the looser ones from
// before those changes, which still catch eager page arrays or per-byte
// decode errors (433 KiB / 424 and 1048 KiB / 7942) coming back.
func TestColdStartAllocs(t *testing.T) {
	budgets := []struct {
		mech              string
		maxBytes, maxObjs float64
	}{
		{MechBaseline, 80 << 10, 300},
		{MechZpoline, 160 << 10, 380},
	}
	if raceEnabled {
		budgets[0].maxBytes, budgets[0].maxObjs = 192<<10, 400
		budgets[1].maxBytes, budgets[1].maxObjs = 512<<10, 600
	}
	for _, c := range budgets {
		b, n := coldStartAllocs(t, c.mech)
		t.Logf("%s: %.0f B in %.0f objects per run", c.mech, b, n)
		if b >= c.maxBytes || n >= c.maxObjs {
			t.Errorf("%s: one cold run allocates %.0f B in %.0f objects, want < %.0f B and < %.0f objects",
				c.mech, b, n, c.maxBytes, c.maxObjs)
		}
	}
}
