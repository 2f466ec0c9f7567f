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
		k := kernel.New(kernel.Config{})
		task, err := spawnCoreutil("cat", guest.LibcUbuntu2004(false))(k)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		if err := attachTracing(mech, k, task, rec); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		if task.ExitCode != 0 {
			t.Fatalf("%s: cat exited %d", mech, task.ExitCode)
		}
		traces[mech] = rec.Nrs()
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
