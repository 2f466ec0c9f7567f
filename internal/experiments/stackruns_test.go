package experiments

import (
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
)

// microbenchCounters runs the Table II loop under mech with a telemetry
// sink, in quanta of the given length, and returns the metric counters at
// exit.
func microbenchCounters(t *testing.T, mech string, iters int64, quantum uint64) map[string]uint64 {
	t.Helper()
	sink := telemetry.NewSink()
	costs := kernel.DefaultCostModel()
	costs.SchedQuantum = quantum
	k := kernel.New(kernel.Config{Telemetry: sink, Costs: costs})
	prog, err := guest.Microbench(kernel.NonexistentSyscall, iters)
	if err != nil {
		t.Fatal(err)
	}
	task, err := prog.Spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := attach(mech, k, task, interpose.Dummy{}, true); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(-1); err != nil {
		t.Fatal(err)
	}
	if task.ExitCode != 0 {
		t.Fatalf("%s: exit %d", mech, task.ExitCode)
	}
	return sink.Metrics.Snapshot().Counters
}

// TestStubRetiresAsStackRuns: every interposed syscall retires the entry
// stub's register save/restore — fifteen pushes, seven reloads, fifteen
// pops — as three stack runs, 37 fused instructions, whatever the stub
// options. Measured as the difference between two loop lengths, so what
// runs outside the loop cancels out: the blocks' first arrival, which
// builds them, and the final exit, which never reaches the
// pops. The quantum never
// expires: a run the quantum's end would split executes per instruction,
// which at the default quantum costs the lazypoline cell 52 of 74 000.
// A stub edit that breaks a run up, or a run that falls off the fast
// path, changes the count.
func TestStubRetiresAsStackRuns(t *testing.T) {
	const short, long, quantum = 1_000, 3_000, 1 << 40
	for _, mech := range []string{MechZpoline, MechLazypolineNX, MechLazypoline, MechLazypolineMPK} {
		a, b := microbenchCounters(t, mech, short, quantum), microbenchCounters(t, mech, long, quantum)
		calls := b["kernel.dispatch.trampoline.calls"] - a["kernel.dispatch.trampoline.calls"]
		if calls != long-short {
			t.Fatalf("%s: %d more trampoline dispatches, want %d", mech, calls, long-short)
		}
		if got := b["cpu.trace.fused_stack_insts"] - a["cpu.trace.fused_stack_insts"]; got != 37*calls {
			t.Errorf("%s: %d more fused stack instructions for %d more interposed syscalls, want 37 each",
				mech, got, calls)
		}
	}
	for _, mech := range []string{MechBaseline, MechSUD, MechPtrace} {
		if n := microbenchCounters(t, mech, short, quantum)["cpu.trace.fused_stack_insts"]; n != 0 {
			t.Errorf("%s: %d fused stack instructions without a stub", mech, n)
		}
	}
}
