package guest

import (
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/kernel"
)

// TestMemBenchSelfCheck: the guest's accumulated load sum must match the
// closed-form expectation on both execution engines — the bench workload
// is only useful if a wrong byte anywhere fails it loudly.
func TestMemBenchSelfCheck(t *testing.T) {
	for _, mode := range []cpu.ExecMode{cpu.ExecFast, cpu.ExecReference} {
		t.Run(mode.String(), func(t *testing.T) {
			k := kernel.New(kernel.Config{Exec: mode})
			prog, err := MemBench(5)
			if err != nil {
				t.Fatal(err)
			}
			task, err := prog.Spawn(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Run(-1); err != nil {
				t.Fatal(err)
			}
			if task.ExitCode != 0 {
				t.Fatalf("membench exited %d (self-check failed)", task.ExitCode)
			}
			if mode == cpu.ExecFast && task.CPU.TLBStats().Hits == 0 {
				t.Error("membench retired with zero TLB hits; it does not exercise the data path")
			}
		})
	}
}
