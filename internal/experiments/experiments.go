// Package experiments regenerates every table and figure of the paper's
// evaluation: the characteristics matrix (Table I), the microbenchmark
// (Table II), the overhead breakdown (Figure 4), the coreutils xstate
// analysis (Table III, via package pin), the web-server macrobenchmark
// (Figure 5), and the §V-A JIT exhaustiveness experiment. The lazysim
// command and the repository benchmarks are thin wrappers over this
// package.
package experiments

import (
	"fmt"
	"slices"

	"lazypoline/internal/core"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
	"lazypoline/internal/ptracer"
	"lazypoline/internal/seccomputil"
	"lazypoline/internal/sud"
	"lazypoline/internal/zpoline"
)

// Mechanism names used across experiments.
const (
	MechBaseline     = "baseline"
	MechBaselineSUD  = "baseline+SUD-enabled"
	MechZpoline      = "zpoline"
	MechLazypolineNX = "lazypoline-noxstate"
	MechLazypoline   = "lazypoline"
	MechSUD          = "SUD"
	MechSeccompUser  = "seccomp-user"
	MechPtrace       = "ptrace"
	// MechSeccompBPF is Table I's in-kernel allow-all filter: it runs no
	// user-space interposer, so attach ignores the one it is given.
	MechSeccompBPF = "seccomp-bpf"
	// MechLazypolineMPK is the §VI ablation: lazypoline with the selector
	// byte isolated behind a memory protection key (two extra WRPKRU
	// pairs per interposed syscall).
	MechLazypolineMPK = "lazypoline+MPK"
)

// attach installs the named mechanism on a task with interposer ip (the
// benchmarks pass interpose.Dummy, the traced experiments a
// trace.Recorder) and returns the mechanism's runtime, nil for the two
// baselines. MechBaseline attaches nothing; MechBaselineSUD arms SUD with
// the selector parked at ALLOW, isolating the kernel entry-path tax.
// preRewrite selects lazypoline's up-front rewriting pass: on for the
// microbenchmark (pure steady state, as in the paper), off for the
// macrobenchmark (the deployed lazy configuration) and for tracing, whose
// sites go through the SIGSYS slow path.
func attach(name string, k *kernel.Kernel, t *kernel.Task, ip interpose.Interposer, preRewrite bool) (any, error) {
	switch name {
	case MechBaseline:
		return nil, nil
	case MechBaselineSUD:
		selPage, err := t.AS.MapAnon(4096, mem.ProtRW)
		if err != nil {
			return nil, err
		}
		if err := t.AS.WriteForce(selPage, []byte{kernel.SyscallDispatchFilterAllow}); err != nil {
			return nil, err
		}
		return nil, k.ConfigSUD(t, kernel.SUDConfig{Enabled: true, SelectorAddr: selPage})
	case MechZpoline:
		return zpoline.Attach(k, t, ip, zpoline.Options{})
	case MechLazypolineNX:
		return core.Attach(k, t, ip, core.Options{NoXStateDefault: true, PreRewrite: preRewrite})
	case MechLazypoline:
		return core.Attach(k, t, ip, core.Options{PreRewrite: preRewrite})
	case MechLazypolineMPK:
		return core.Attach(k, t, ip, core.Options{PreRewrite: preRewrite, ProtectSelector: true})
	case MechSUD:
		return sud.Attach(k, t, ip)
	case MechSeccompUser:
		return seccomputil.AttachUser(k, t, ip)
	case MechSeccompBPF:
		return nil, seccomputil.AttachBPF(k, t, seccomputil.BPFPolicy{})
	case MechPtrace:
		return ptracer.Attach(k, t, ip), nil
	default:
		return nil, fmt.Errorf("experiments: unknown mechanism %q", name)
	}
}

// MicroResult is one Table II row.
type MicroResult struct {
	Mechanism     string
	CyclesPerCall float64
	// Overhead is CyclesPerCall relative to the baseline row.
	Overhead float64
}

// Table2Mechanisms is the paper's Table II row order.
var Table2Mechanisms = []string{
	MechBaseline, MechZpoline, MechLazypolineNX, MechLazypoline, MechSUD, MechBaselineSUD,
}

// Table2 runs the microbenchmark — syscall 500, `iters` times — under
// every Table II configuration and returns cycles/call plus overheads.
// For the lazypoline rows the sites are rewritten up front, exactly as
// in the paper, so the numbers are pure steady state. The rows run on a
// pool of `parallelism` workers (<=0 selects DefaultParallelism); each
// owns its own kernel, so the output is identical at any width.
func Table2(iters int64, parallelism int) ([]MicroResult, error) {
	return microbench(Table2Mechanisms, iters, parallelism)
}

// Table2Single measures one mechanism's cycles/call (for benchmarks that
// report a single configuration per run).
func Table2Single(mech string, iters int64) (float64, error) {
	cycles, err := microCycles(mech, iters, nil)
	if err != nil {
		return 0, err
	}
	return float64(cycles) / float64(iters), nil
}

func microbench(mechs []string, iters int64, parallelism int) ([]MicroResult, error) {
	perCall := make([]float64, len(mechs))
	err := runSweep(len(mechs), parallelism, func(i int) (err error) {
		if perCall[i], err = Table2Single(mechs[i], iters); err != nil {
			return fmt.Errorf("experiments: %s: %w", mechs[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The baseline row anchors every Overhead, wherever it sits in the
	// row order.
	var baseline float64
	if i := slices.Index(mechs, MechBaseline); i >= 0 {
		baseline = perCall[i]
	}
	if baseline <= 0 {
		return nil, fmt.Errorf("experiments: baseline row missing or measured no cycles; cannot normalise overheads")
	}
	out := make([]MicroResult, 0, len(mechs))
	for i, mech := range mechs {
		out = append(out, MicroResult{
			Mechanism:     mech,
			CyclesPerCall: perCall[i],
			Overhead:      perCall[i] / baseline,
		})
	}
	return out, nil
}

// microCycles measures total guest cycles for the microbench loop under
// mech, with the syscall policy pol (nil = none).
func microCycles(mech string, iters int64, pol *kernel.PolicyConfig) (uint64, error) {
	k := kernel.New(kernel.Config{Policy: pol})
	prog, err := guest.Microbench(kernel.NonexistentSyscall, iters)
	if err != nil {
		return 0, err
	}
	task, err := prog.Spawn(k)
	if err != nil {
		return 0, err
	}
	if _, err := attach(mech, k, task, interpose.Dummy{}, true); err != nil {
		return 0, err
	}
	if err := k.Run(-1); err != nil {
		return 0, err
	}
	if task.ExitCode != 0 {
		return 0, fmt.Errorf("microbench exited %d (policy violation: %q)", task.ExitCode, task.PolicyViolation)
	}
	return task.CPU.Cycles, nil
}

// Figure4 decomposes lazypoline's overhead (cycles per call) into the
// paper's components: pure rewriting (zpoline), the cost of enabling SUD
// (the exhaustiveness guarantee), and xstate preservation. It also
// verifies the paper's claim that lazypoline's fast path with SUD
// disabled matches zpoline.
type Figure4Result struct {
	BaselineCycles  float64
	ZpolineCycles   float64
	NoXStateCycles  float64
	FullCycles      float64
	FastPathNoSUD   float64 // lazypoline's stub without SUD = zpoline
	RewritingOver   float64 // zpoline - baseline
	EnablingSUDOver float64 // noxstate - zpoline
	XStateOver      float64 // full - noxstate
}

// Figure4 runs the breakdown microbenchmarks.
func Figure4(iters int64) (Figure4Result, error) {
	var r Figure4Result
	rows, err := microbench([]string{MechBaseline, MechZpoline, MechLazypolineNX, MechLazypoline}, iters, 0)
	if err != nil {
		return r, err
	}
	r.BaselineCycles = rows[0].CyclesPerCall
	r.ZpolineCycles = rows[1].CyclesPerCall
	r.NoXStateCycles = rows[2].CyclesPerCall
	r.FullCycles = rows[3].CyclesPerCall

	// "lazypoline's fast path with SUD disabled": structurally the same
	// stub as zpoline's; measured through the zpoline attach (UseSUD off).
	if r.FastPathNoSUD, err = Table2Single(MechZpoline, iters); err != nil {
		return r, err
	}

	r.RewritingOver = r.ZpolineCycles - r.BaselineCycles
	r.EnablingSUDOver = r.NoXStateCycles - r.ZpolineCycles
	r.XStateOver = r.FullCycles - r.NoXStateCycles
	return r, nil
}
