package experiments

import (
	"fmt"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/trace"
)

// ExhaustivenessResult is the §V-A experiment outcome for one mechanism.
type ExhaustivenessResult struct {
	Mechanism string
	// Trace is the interposer-observed syscall number sequence.
	Trace []int64
	// SawJITGetpid reports whether the dynamically generated getpid was
	// interposed.
	SawJITGetpid bool
	// MatchesGroundTruth reports whether the interposer saw exactly the
	// syscalls the kernel dispatched (SUD's exhaustiveness standard).
	MatchesGroundTruth bool
	// Diff describes the first divergence from ground truth ("" if none).
	Diff string
	// GroundTruth is the kernel's dispatch-level sequence.
	GroundTruth []int64
}

// Exhaustiveness reproduces §V-A: the tcc-like JIT guest compiles a
// program with a singular, non-libc getpid at run time; the same
// workload runs under SUD, zpoline and lazypoline with a tracing
// interposer. SUD and lazypoline must produce the exact same (complete)
// trace; zpoline misses the JIT syscall. The runs use a pool of
// `parallelism` workers (<=0 selects DefaultParallelism); each traces the
// JIT workload in its own kernel, so the output is identical at any width.
func Exhaustiveness(parallelism int) ([]ExhaustivenessResult, error) {
	mechs := []string{MechSUD, MechZpoline, MechLazypoline}
	out := make([]ExhaustivenessResult, len(mechs))
	err := runSweep(len(mechs), parallelism, func(i int) error {
		res, err := exhaustivenessRun(mechs[i])
		if err != nil {
			return fmt.Errorf("experiments: exhaustiveness %s: %w", mechs[i], err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func exhaustivenessRun(mech string) (ExhaustivenessResult, error) {
	k := kernel.New(kernel.Config{})
	if err := k.FS.MkdirAll("/src", 0o755); err != nil {
		return ExhaustivenessResult{}, err
	}
	if err := k.FS.WriteFile(guest.JITSourcePath, []byte(guest.JITSource), 0o644); err != nil {
		return ExhaustivenessResult{}, err
	}
	prog, err := guest.JIT()
	if err != nil {
		return ExhaustivenessResult{}, err
	}
	task, err := prog.Spawn(k)
	if err != nil {
		return ExhaustivenessResult{}, err
	}
	gt := &trace.GroundTruth{}
	k.OnDispatch = gt.Hook()
	rec := &trace.Recorder{}
	if _, err := attach(mech, k, task, rec, false); err != nil {
		return ExhaustivenessResult{}, err
	}
	if err := k.Run(50_000_000); err != nil {
		return ExhaustivenessResult{}, err
	}
	if task.ExitCode != task.Tgid {
		return ExhaustivenessResult{}, fmt.Errorf("guest exited %d, want pid", task.ExitCode)
	}

	res := ExhaustivenessResult{
		Mechanism:    mech,
		Trace:        rec.Nrs(),
		SawJITGetpid: rec.Contains(kernel.SysGetpid),
		GroundTruth:  gt.Nrs(),
	}
	// Ground truth includes the syscalls issued by the interposition
	// runtime itself (mprotect from the rewriter, the final sigreturns)
	// which a tracer deliberately does not report as application
	// syscalls; exhaustiveness means every APPLICATION syscall appears,
	// i.e. nothing from the ground truth minus runtime-internal calls is
	// missing. We compare on the application view: the trace must be a
	// subsequence covering all non-runtime syscalls.
	missing := trace.Missing(filterRuntime(res.GroundTruth), res.Trace)
	res.MatchesGroundTruth = len(missing) == 0
	if !res.MatchesGroundTruth {
		res.Diff = fmt.Sprintf("missing %d syscalls, first: %s",
			len(missing), kernel.SyscallName(missing[0]))
	}
	return res, nil
}

// filterRuntime drops the syscalls interposition runtimes issue on their
// own behalf (mprotect for rewriting, sigreturn for slow-path exits) from
// a ground-truth trace, leaving the application's syscalls.
func filterRuntime(nrs []int64) []int64 {
	var out []int64
	for _, nr := range nrs {
		switch nr {
		case kernel.SysMprotect, kernel.SysRtSigreturn:
			continue
		}
		out = append(out, nr)
	}
	return out
}
