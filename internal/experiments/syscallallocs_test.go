package experiments

import (
	"runtime"
	"testing"
)

// microbenchMallocs reports how many heap objects one run of the Table II
// loop allocates, set-up included.
func microbenchMallocs(t *testing.T, mech string, iters int64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := microCycles(mech, iters, nil); err != nil {
		t.Fatalf("%s: %v", mech, err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestInterposedSyscallAllocs is the allocation gate of the steady-state
// interposition path (DESIGN.md §6): once a mechanism is warm, one more
// interposed syscall allocates nothing — the hcall environment and the
// ptrace stop live in the task, the in-flight Call is recycled from the
// task's own stack, and signal frames and register spans are staged on
// the host stack. ptrace needs no budget of its own. Measured as the
// difference between a long and a short run of the same loop, so that
// set-up, first-touch page backing and decoding cancel; the tolerance
// (one object per hundred calls) absorbs the Go runtime's own background allocations. Before,
// every interposing mechanism allocated two to three objects per call
// (HcallCtx, Call, PtraceStop, the pending stack's growth).
func TestInterposedSyscallAllocs(t *testing.T) {
	const short, long = 2_000, 22_000
	for _, iters := range []int64{short, long} {
		microbenchMallocs(t, MechBaseline, iters) // fill the guest program cache
	}
	for _, mech := range []string{
		MechBaseline, MechBaselineSUD, MechZpoline, MechLazypolineNX, MechLazypoline,
		MechLazypolineMPK, MechSUD, MechSeccompUser, MechPtrace,
	} {
		a, b := microbenchMallocs(t, mech, short), microbenchMallocs(t, mech, long)
		perCall := (float64(b) - float64(a)) / (long - short)
		t.Logf("%s: %d objects at %d calls, %d at %d: %.4f per call", mech, a, short, b, long, perCall)
		if perCall > 0.01 {
			t.Errorf("%s: %.3f objects allocated per interposed call, want 0", mech, perCall)
		}
	}
}
