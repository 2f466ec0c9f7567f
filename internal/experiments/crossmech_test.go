package experiments

import (
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/trace"
)

// TestAllMechanismsAgreeOnCoreutils runs `cat` (a real multi-syscall
// workload) under every exhaustive user-space mechanism and checks that
// each produces the identical syscall-number sequence: mechanisms differ
// in COST, never in WHAT the interposer observes.
func TestAllMechanismsAgreeOnCoreutils(t *testing.T) {
	mechs := []string{MechLazypoline, MechLazypolineNX, MechSUD, MechSeccompUser, MechPtrace}
	traces := make(map[string][]int64, len(mechs))
	for _, mech := range mechs {
		traces[mech] = catTrace(t, mech, kernel.Config{})
	}
	ref := traces[MechSUD]
	if len(ref) < 8 {
		t.Fatalf("suspiciously short reference trace: %v", ref)
	}
	for _, mech := range mechs {
		if d := trace.DiffNrs(traces[mech], ref); d != "" {
			t.Errorf("%s trace differs from SUD: %s", mech, d)
		}
	}
}

// catTrace runs `cat` to a clean exit under mech with a tracing
// interposer and returns the syscall numbers it observed.
func catTrace(t *testing.T, mech string, cfg kernel.Config) []int64 {
	t.Helper()
	k := kernel.New(cfg)
	task, err := spawnCoreutil("cat", guest.LibcUbuntu2004(false))(k)
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	if _, err := attach(mech, k, task, rec, false); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 0 {
		t.Fatalf("%s: cat exited %d", mech, task.ExitCode)
	}
	return rec.Nrs()
}
