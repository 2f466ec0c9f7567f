package experiments

import (
	"testing"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/policy"
	"lazypoline/internal/telemetry"
)

// The syscall-policy invariance gate (DESIGN.md §6):
//
//  1. policy OFF is free and invisible: a kernel with Policy nil and one
//     with an all-off &PolicyConfig{} produce byte-identical outcomes,
//     for benign AND attack guests, under every mechanism, with chaos,
//     telemetry and the reference engine exercised (TestExecEquivalence's
//     policy-off variants);
//  2. both attack guests are killed with the SAME violation record under
//     all nine mechanisms — the policy verdict is a property of the
//     application, not of the interposition technology;
//  3. a benign guest runs to completion under full enforcement with an
//     SFIP profile learned under a DIFFERENT mechanism, paying a
//     nonzero but exit-invisible cost.

// spawnAttackJIT, spawnAttackSeq and spawnMicro build one guest each.
func spawnAttackJIT(k *kernel.Kernel) (*kernel.Task, error) {
	prog, err := guest.AttackJIT()
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

func spawnAttackSeq(k *kernel.Kernel) (*kernel.Task, error) {
	prog, err := guest.AttackSeq()
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

func spawnMicro(k *kernel.Kernel) (*kernel.Task, error) {
	prog, err := guest.Microbench(kernel.NonexistentSyscall, 300)
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

// runPolicyGuest runs one guest under one mechanism and configuration
// and returns the full observable outcome, whatever the guest's exit.
func runPolicyGuest(t *testing.T, mech string, cfg kernel.Config, spawn func(*kernel.Kernel) (*kernel.Task, error)) (runOutcome, *kernel.Task) {
	t.Helper()
	return runGuest(t, mech, cfg, guestSpec{spawn: spawn, preRewrite: true, budget: -1})
}

// violationRecord is the mechanism-invariant slice of a policy kill:
// what the guest managed to output, how it died, and why. (Cycle counts
// and the mechanisms' own service syscalls legitimately differ between
// interposers, so the full runOutcome is not comparable across them.)
type violationRecord struct {
	Exit      int
	Console   string
	Violation string
}

// TestPolicyInvarianceAttacks: with the matching layer enabled, each
// attack guest dies with 128+SIGSYS and an identical violation record
// under all nine mechanisms, and telemetry attributes exactly one
// violation to the right layer.
func TestPolicyInvarianceAttacks(t *testing.T) {
	cases := []struct {
		name    string
		spawn   func(*kernel.Kernel) (*kernel.Task, error)
		pol     func() *kernel.PolicyConfig
		counter string
	}{
		{
			"attack-jit", spawnAttackJIT,
			func() *kernel.PolicyConfig { return &kernel.PolicyConfig{Regions: true} },
			"policy.region.violations",
		},
		{
			"attack-seq", spawnAttackSeq,
			func() *kernel.PolicyConfig { return &kernel.PolicyConfig{SFIP: guest.AttackSeqProfile()} },
			"policy.sfip.violations",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			records := make(map[string]violationRecord, len(invarianceMechs))
			for _, mech := range invarianceMechs {
				sink := telemetry.NewSink()
				out, task := runPolicyGuest(t, mech, kernel.Config{Policy: c.pol(), Telemetry: sink}, c.spawn)
				if out.Exit != 128+kernel.SIGSYS {
					t.Errorf("%s: exit = %d, want %d", mech, out.Exit, 128+kernel.SIGSYS)
				}
				if task.PolicyViolation == "" {
					t.Errorf("%s: no violation recorded", mech)
				}
				if n := sink.Metrics.Snapshot().Counters[c.counter]; n != 1 {
					t.Errorf("%s: %s = %d, want 1", mech, c.counter, n)
				}
				records[mech] = violationRecord{out.Exit, out.Console, task.PolicyViolation}
			}
			ref := records[MechBaseline]
			for _, mech := range invarianceMechs {
				if records[mech] != ref {
					t.Errorf("violation record differs between %s and baseline:\n%+v\nvs\n%+v",
						mech, records[mech], ref)
				}
			}
		})
	}
}

// TestPolicyInvarianceBenign: full enforcement (regions + an SFIP
// profile learned once, under the plain baseline) lets a benign guest
// run to its normal exit under every mechanism, while charging a
// strictly positive cycle cost relative to the same mechanism's
// policy-off run.
func TestPolicyInvarianceBenign(t *testing.T) {
	guests := []struct {
		name  string
		spawn func(*kernel.Kernel) (*kernel.Task, error)
		track []int64 // extra alphabet entries beyond SFIPAlphabet
	}{
		{"microbench", spawnMicro, []int64{kernel.NonexistentSyscall}},
		{"cat", spawnCoreutil("cat", guest.LibcUbuntu2004(false)), nil},
	}
	for _, g := range guests {
		t.Run(g.name, func(t *testing.T) {
			prof := policy.NewProfile(SFIPAlphabet()...)
			for _, nr := range g.track {
				prof.Track(nr)
			}
			learn, _ := runPolicyGuest(t, MechBaseline,
				kernel.Config{Policy: &kernel.PolicyConfig{SFIPLearn: prof}}, g.spawn)
			if learn.Exit != 0 {
				t.Fatalf("learning run exited %d", learn.Exit)
			}
			for _, mech := range invarianceMechs {
				off, offTask := runPolicyGuest(t, mech, kernel.Config{}, g.spawn)
				on, onTask := runPolicyGuest(t, mech,
					kernel.Config{Policy: &kernel.PolicyConfig{Regions: true, SFIP: prof}}, g.spawn)
				if on.Exit != 0 {
					t.Errorf("%s: enforced run exited %d (violation %q)", mech, on.Exit, onTask.PolicyViolation)
					continue
				}
				if on.Exit != off.Exit || on.Console != off.Console || on.Ground != off.Ground || on.Trace != off.Trace {
					t.Errorf("%s: enforcement changed observable behaviour:\n--- off ---\n%s\n--- on ---\n%s\nfirst diff: %s",
						mech, off, on, firstDiff(off.String(), on.String()))
				}
				if onTask.CPU.Cycles <= offTask.CPU.Cycles {
					t.Errorf("%s: enforced run cost %d cycles <= policy-off %d; checks were not charged",
						mech, onTask.CPU.Cycles, offTask.CPU.Cycles)
				}
			}
		})
	}
}
