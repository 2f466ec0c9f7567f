package experiments

// The chaos engine's determinism contract (internal/chaos, DESIGN.md §8):
// every fault decision is a pure function of (seed, rate) and per-site
// application-event counters, never of mechanism-internal activity. These
// tests enforce the two observable consequences:
//
//   1. Cross-mechanism invariance — for a fixed (guest, seed, rate), a
//      deterministic single-task guest produces the same console output,
//      exit code and interposer-observed syscall sequence under EVERY
//      interposition mechanism: the fault schedule keys on application
//      events, so a lazypoline rewrite mprotect or a SUD stub re-issue
//      never shifts it.
//
//   2. Zero-rate transparency — chaos configured with rate 0 is
//      byte-identical to chaos never having been configured, down to
//      per-task cycle counts and the argument-level ground-truth trace
//      (TestExecEquivalence's chaos-rate-0 variant).
//
// The multi-task web servers cannot promise cross-mechanism invariance
// (scheduling interleavings are mechanism-dependent), so for them the
// contract weakens to per-(mechanism, seed, rate) reproducibility, which
// is tested here too.

import (
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/trace"
	"lazypoline/internal/webbench"
)

// chaosSeed/chaosRate are the fixed fault plan shared by the invariance
// runs. The rate is high enough that injection demonstrably happens on a
// coreutil-sized workload (asserted below), yet survivable by the
// hardened guest libc's retry loops.
const (
	chaosInvSeed = 0xC0FFEE
	chaosInvRate = 0.3
)

// chaosCoreutilRun executes one coreutil under one mechanism with the
// given fault plan and returns the full observable outcome.
func chaosCoreutilRun(t *testing.T, name, mech string, cfg kernel.Config) (runOutcome, *kernel.Task) {
	t.Helper()
	out, task := runGuest(t, mech, cfg, guestSpec{spawn: spawnCoreutil(name, guest.LibcUbuntu2004(false)), budget: 100_000_000})
	if task.ExitCode != 0 {
		t.Fatalf("%s under %s exited %d (guest not chaos-hardened?)", name, mech, task.ExitCode)
	}
	return out, task
}

// TestChaosInvarianceCrossMech: with a fixed fault plan, every mechanism
// must observe the same application: identical console output, exit code
// and (for tracing mechanisms) interposer-observed syscall sequence. The
// ground trace and cycle counts are deliberately NOT compared across
// mechanisms — mechanisms issue their own syscalls and differ in cost;
// that is the point of the paper.
func TestChaosInvarianceCrossMech(t *testing.T) {
	cfg := kernel.Config{ChaosSeed: chaosInvSeed, ChaosRate: chaosInvRate}

	// Reference: the faulty run must differ from a fault-free run, or the
	// whole matrix is vacuous (rate too low / injection not reached).
	clean, _ := chaosCoreutilRun(t, "cat", MechBaseline, kernel.Config{})

	consoles := make(map[string]string, len(invarianceMechs))
	for _, mech := range invarianceMechs {
		out, _ := chaosCoreutilRun(t, "cat", mech, cfg)
		consoles[mech] = out.Console
		if mech == MechBaseline && out.Console != clean.Console {
			// cat's output goes through the hardened write loop, so even a
			// faulty run must produce the full file contents.
			t.Errorf("chaos corrupted console output:\nclean: %q\nchaos: %q", clean.Console, out.Console)
		}
	}
	ref := consoles[MechSUD]
	for _, mech := range invarianceMechs {
		if got := consoles[mech]; got != ref {
			t.Errorf("%s console differs from SUD under identical fault plan:\n%s: %q\nSUD: %q",
				mech, mech, got, ref)
		}
	}
}

// TestChaosInvarianceCrossMechTraces: the interposer-observed syscall
// sequences — including the injected-and-retried attempts — must be
// identical across all tracing mechanisms for a fixed fault plan, and
// must contain MORE eligible syscalls than a fault-free run (proof the
// injection engaged and the guest retried).
func TestChaosInvarianceCrossMechTraces(t *testing.T) {
	cfg := kernel.Config{ChaosSeed: chaosInvSeed, ChaosRate: chaosInvRate}
	mechs := []string{MechLazypoline, MechLazypolineNX, MechZpoline, MechSUD, MechSeccompUser, MechPtrace}

	ref := catTrace(t, MechSUD, cfg)
	clean := catTrace(t, MechSUD, kernel.Config{})
	if len(ref) <= len(clean) {
		t.Fatalf("chaos trace (%d syscalls) not longer than clean trace (%d): no injected retries — vacuous",
			len(ref), len(clean))
	}
	for _, mech := range mechs {
		if mech == MechSUD {
			continue
		}
		if d := trace.DiffNrs(catTrace(t, mech, cfg), ref); d != "" {
			t.Errorf("%s trace differs from SUD under identical fault plan: %s", mech, d)
		}
	}
}

// TestChaosInvarianceWebBench: the multi-task web server promises
// per-(mechanism, seed, rate) reproducibility — two runs of the same cell
// are identical — and zero-rate chaos equals chaos-disabled, for both
// server styles under a representative mechanism sample.
func TestChaosInvarianceWebBench(t *testing.T) {
	mechs := []string{MechBaseline, MechLazypoline, MechSUD}
	for _, style := range []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd} {
		for _, mech := range mechs {
			style, mech := style, mech
			t.Run(style.String()+"/"+mech, func(t *testing.T) {
				run := func(seed uint64, rate float64) webbench.Result {
					res, err := webbench.Run(webbench.Config{
						Style:       style,
						Workers:     1,
						FileSize:    1024,
						Connections: 4,
						Requests:    40,
						Attach:      AttachFunc(mech),
						ChaosSeed:   seed,
						ChaosRate:   rate,
					})
					if err != nil {
						t.Fatalf("webbench %s/%s: %v", style, mech, err)
					}
					return res
				}
				a := run(chaosInvSeed, 0.02)
				b := run(chaosInvSeed, 0.02)
				if a != b {
					t.Errorf("same (mech, seed, rate) not reproducible:\nrun 1: %+v\nrun 2: %+v", a, b)
				}
				if a.Requests != 40 {
					t.Errorf("chaos run completed %d/40 requests — client retry did not recover", a.Requests)
				}
				disabled := run(0, 0)
				zero := run(chaosInvSeed, 0)
				if disabled != zero {
					t.Errorf("zero-rate differs from disabled:\ndisabled: %+v\nrate 0:   %+v", disabled, zero)
				}
			})
		}
	}
}
