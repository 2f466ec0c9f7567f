package experiments

import "testing"

// TestSeccompUserSlowerThanSUD pins the paper's §IV-A(a) claim: seccomp-
// based user-space deferral "still requires loading and executing a BPF
// program for every syscall, which previous work has shown to be slower
// than SUD's more direct filtering".
func TestSeccompUserSlowerThanSUD(t *testing.T) {
	sudCycles, err := Table2Single(MechSUD, 1000)
	if err != nil {
		t.Fatal(err)
	}
	scmpCycles, err := Table2Single(MechSeccompUser, 1000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SUD=%.1f seccomp-user=%.1f cycles/call", sudCycles, scmpCycles)
	if scmpCycles <= sudCycles {
		t.Errorf("seccomp-user (%.1f) should be slower than SUD (%.1f)", scmpCycles, sudCycles)
	}
	// The gap is the per-syscall BPF execution: a handful of percent, not
	// another order of magnitude.
	if scmpCycles > 1.2*sudCycles {
		t.Errorf("seccomp-user gap too large: %.2fx of SUD", scmpCycles/sudCycles)
	}
}

// TestPtraceSlowestOfAll pins Table I's efficiency ordering end to end.
func TestPtraceSlowestOfAll(t *testing.T) {
	var prev float64
	for _, mech := range []string{MechZpoline, MechLazypoline, MechSUD, MechPtrace} {
		c, err := Table2Single(mech, 500)
		if err != nil {
			t.Fatal(err)
		}
		if c <= prev {
			t.Errorf("%s (%.1f) should cost more than the previous mechanism (%.1f)", mech, c, prev)
		}
		prev = c
	}
}

// TestExhaustiveMechanismsAgreeExactly: SUD and lazypoline must produce
// IDENTICAL traces on the JIT workload — the paper's strongest §V-A
// statement ("print the exact same syscalls, in the same order").
func TestExhaustiveMechanismsAgreeExactly(t *testing.T) {
	results, err := Exhaustiveness(0)
	if err != nil {
		t.Fatal(err)
	}
	var sudTrace, lazyTrace []int64
	for _, r := range results {
		switch r.Mechanism {
		case MechSUD:
			sudTrace = r.Trace
		case MechLazypoline:
			lazyTrace = r.Trace
		}
	}
	if len(sudTrace) == 0 || len(sudTrace) != len(lazyTrace) {
		t.Fatalf("trace lengths differ: SUD %d vs lazypoline %d", len(sudTrace), len(lazyTrace))
	}
	for i := range sudTrace {
		if sudTrace[i] != lazyTrace[i] {
			t.Errorf("traces diverge at %d: %d vs %d", i, sudTrace[i], lazyTrace[i])
		}
	}
}
