package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
)

// coldCat runs `cat` to exit in a fresh kernel and file system under
// mech — load, attach and all: the unit of the benchmark's coldstart
// workload.
func coldCat(mech string) (*kernel.Kernel, *kernel.Task, error) {
	k := kernel.New(kernel.Config{})
	for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
		if err := k.FS.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	for path, contents := range guest.CoreutilFSFiles {
		if err := k.FS.WriteFile(path, []byte(contents), 0o644); err != nil {
			return nil, nil, err
		}
	}
	prog, err := guest.Coreutil("cat", guest.LibcUbuntu2004(false))
	if err != nil {
		return nil, nil, err
	}
	task, err := prog.Spawn(k)
	if err != nil {
		return nil, nil, err
	}
	if attach := AttachFunc(mech); attach != nil {
		if err := attach(k, task); err != nil {
			return nil, nil, err
		}
	}
	if err := k.Run(50_000_000); err != nil {
		return nil, nil, err
	}
	if task.ExitCode != 0 {
		return nil, nil, fmt.Errorf("%s: cat exited %d", mech, task.ExitCode)
	}
	return k, task, nil
}

// coldStartAllocs reports what one coldCat allocates. The first run,
// which also fills the guest package's program cache, is not counted.
func coldStartAllocs(t *testing.T, mech string) (bytesPerRun, objsPerRun float64) {
	t.Helper()
	const measured = 8
	run := func() {
		if _, _, err := coldCat(mech); err != nil {
			t.Fatal(err)
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
// §4): a coreutil run pays for the pages it touches and the blocks it
// executes, not for what it maps, loads as zeros or scans, and not for the
// image, vDSO and stub pages it shares with every other run. Measured:
// 32 KiB in 148 objects under baseline, 53 KiB in 272 under zpoline (whose
// extra is the private copies of the code pages its attach rewrites and
// the blocks decoded from them). While every load copied the image into
// fresh pages and every CPU decoded every block it entered, the same runs
// took 46 KiB in 248 objects and 125 KiB in 326; the budgets sit just
// above the new numbers, so a load that copies or a build that decodes a
// shared page again fails here.
//
// Under -race, sync.Pool drops a share of what is put back and builds
// allocate fresh scratch for it: 32 KiB in 148 objects and about 96 KiB
// in 324, so the zpoline budget there is looser.
func TestColdStartAllocs(t *testing.T) {
	budgets := []struct {
		mech              string
		maxBytes, maxObjs float64
	}{
		{MechBaseline, 40 << 10, 175},
		{MechZpoline, 68 << 10, 305},
	}
	if raceEnabled {
		budgets[0].maxBytes, budgets[0].maxObjs = 48<<10, 220
		budgets[1].maxBytes, budgets[1].maxObjs = 144<<10, 400
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
