package experiments

// The syscall-policy overhead benchmark behind BENCH_policy.json: the
// paper's Table II microbenchmark and a Figure 5 subset, each re-run
// with the privilege-region layer, the SFIP layer, and both (DESIGN.md
// §6). SFIP rows are learn-then-enforce: a learning pass populates the
// cell's transition profile, then the measured pass enforces it. The
// learning pass charges the identical PolicySFIPCheck cycles, so its
// schedule is exactly the enforce run's schedule and the learned
// profile covers it edge-for-edge.

import (
	"fmt"

	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/policy"
	"lazypoline/internal/webbench"
)

// SFIPAlphabet is the tracked-syscall universe for benign-guest SFIP
// profiles: every named syscall except the two whose dispatch counts
// are mechanism-DEPENDENT. lazypoline services the application's
// rt_sigaction from its Go payload (a host-synthesised call that never
// reaches the guest dispatch path), and rt_sigreturn traffic is signal
// machinery the SIGSYS-based mechanisms generate on their own; tracking
// either would make the automaton's state differ between mechanisms.
func SFIPAlphabet() []int64 {
	var out []int64
	for _, nr := range kernel.SyscallNumbers() {
		switch nr {
		case kernel.SysRtSigaction, kernel.SysRtSigreturn:
			continue
		}
		out = append(out, nr)
	}
	return out
}

// cellPolicy builds the PolicyConfig for one measured cell. When SFIP
// is requested it first invokes learnRun with a learning config (same
// regions setting, SFIPLearn populated) and then returns a config that
// enforces the learned profile.
func cellPolicy(regions, sfip bool, learnRun func(*kernel.PolicyConfig) error) (*kernel.PolicyConfig, error) {
	if !regions && !sfip {
		return nil, nil
	}
	pol := &kernel.PolicyConfig{Regions: regions}
	if sfip {
		prof := policy.NewProfile(SFIPAlphabet()...)
		if err := learnRun(&kernel.PolicyConfig{Regions: regions, SFIPLearn: prof}); err != nil {
			return nil, err
		}
		pol.SFIP = prof
	}
	return pol, nil
}

// PolicyModes is the report order of the policy configurations.
var PolicyModes = []string{"off", "regions", "sfip", "both"}

// policyMode maps a PolicyModes name to its (regions, sfip) switches.
func policyMode(mode string) (regions, sfip bool) {
	return mode == "regions" || mode == "both", mode == "sfip" || mode == "both"
}

// PolicyBenchConfig parameterises the BENCH_policy.json sweep.
type PolicyBenchConfig struct {
	// MicroIters is the Table II loop count per micro cell.
	MicroIters int64 `json:"micro_iters"`
	// Mechanisms under test (micro and macro).
	Mechanisms []string `json:"mechanisms"`
	// Requests/Connections/FileSizes/Servers shape the Figure 5 subset;
	// all macro cells run with one worker.
	Requests    int                 `json:"requests"`
	Connections int                 `json:"connections"`
	FileSizes   []int               `json:"file_sizes"`
	Servers     []guest.ServerStyle `json:"servers"`
	// Parallelism is execution machinery, not an experiment parameter:
	// results are byte-identical at any width, so it stays out of the
	// snapshot.
	Parallelism int `json:"-"`
}

// DefaultPolicyBenchConfig returns the snapshot configuration.
func DefaultPolicyBenchConfig() PolicyBenchConfig {
	return PolicyBenchConfig{
		MicroIters:  20_000,
		Mechanisms:  []string{MechBaseline, MechZpoline, MechLazypoline, MechSUD},
		Requests:    120,
		Connections: 12,
		FileSizes:   []int{1024, 64 * 1024},
		Servers:     []guest.ServerStyle{guest.StyleNginx},
	}
}

// PolicyMicroRow is one (mechanism, policy mode) microbenchmark cell.
type PolicyMicroRow struct {
	Mechanism     string  `json:"mechanism"`
	Policy        string  `json:"policy"`
	CyclesPerCall float64 `json:"cycles_per_call"`
	// Overhead is CyclesPerCall relative to the same mechanism's
	// policy-off row.
	Overhead float64 `json:"overhead"`
}

// PolicyMacroRow is one (server, file size, mechanism, policy mode)
// web-server cell.
type PolicyMacroRow struct {
	Server     string  `json:"server"`
	FileSize   int     `json:"file_size"`
	Mechanism  string  `json:"mechanism"`
	Policy     string  `json:"policy"`
	Throughput float64 `json:"throughput"`
	// Relative is Throughput over the same cell's policy-off row.
	Relative float64 `json:"relative"`
}

// PolicyBenchResult is the BENCH_policy.json payload.
type PolicyBenchResult struct {
	Micro []PolicyMicroRow `json:"micro"`
	Macro []PolicyMacroRow `json:"macro"`
}

// PolicyBench measures the policy layers' overhead across mechanisms,
// in Table II and Figure 5 terms. Cells run on the shared sweep pool;
// each owns a private kernel (two for SFIP cells: learn, then enforce),
// and rows are assembled in report order, so output is byte-identical
// at any parallelism.
func PolicyBench(cfg PolicyBenchConfig) (PolicyBenchResult, error) {
	type microCell struct {
		mech, mode string
	}
	type macroCell struct {
		server   guest.ServerStyle
		fileSize int
		mech     string
		mode     string
	}
	var micros []microCell
	for _, mech := range cfg.Mechanisms {
		for _, mode := range PolicyModes {
			micros = append(micros, microCell{mech, mode})
		}
	}
	var macros []macroCell
	for _, server := range cfg.Servers {
		for _, fileSize := range cfg.FileSizes {
			for _, mech := range cfg.Mechanisms {
				for _, mode := range PolicyModes {
					macros = append(macros, macroCell{server, fileSize, mech, mode})
				}
			}
		}
	}

	microCycles := make([]float64, len(micros))
	macroTput := make([]float64, len(macros))
	err := runSweep(len(micros)+len(macros), cfg.Parallelism, func(i int) error {
		if i < len(micros) {
			c := micros[i]
			regions, sfip := policyMode(c.mode)
			cycles, err := microCyclesPolicy(c.mech, cfg.MicroIters, regions, sfip)
			if err != nil {
				return fmt.Errorf("experiments: policybench micro %s/%s: %w", c.mech, c.mode, err)
			}
			microCycles[i] = float64(cycles) / float64(cfg.MicroIters)
			return nil
		}
		c := macros[i-len(micros)]
		regions, sfip := policyMode(c.mode)
		wcfg := webbench.Config{
			Style:       c.server,
			Workers:     1,
			FileSize:    c.fileSize,
			Connections: cfg.Connections,
			Requests:    cfg.Requests,
			Attach:      AttachFunc(c.mech),
		}
		pol, err := cellPolicy(regions, sfip, func(learn *kernel.PolicyConfig) error {
			lcfg := wcfg
			lcfg.Policy = learn
			_, lerr := webbench.Run(lcfg)
			return lerr
		})
		if err != nil {
			return fmt.Errorf("experiments: policybench macro %s/%dB/%s/%s: learn: %w",
				c.server, c.fileSize, c.mech, c.mode, err)
		}
		wcfg.Policy = pol
		res, err := webbench.Run(wcfg)
		if err != nil {
			return fmt.Errorf("experiments: policybench macro %s/%dB/%s/%s: %w",
				c.server, c.fileSize, c.mech, c.mode, err)
		}
		macroTput[i-len(micros)] = res.Throughput
		return nil
	})
	if err != nil {
		return PolicyBenchResult{}, err
	}

	var out PolicyBenchResult
	offMicro := make(map[string]float64)
	for i, c := range micros {
		if c.mode == "off" {
			offMicro[c.mech] = microCycles[i]
		}
	}
	for i, c := range micros {
		off := offMicro[c.mech]
		if off <= 0 {
			return PolicyBenchResult{}, fmt.Errorf("experiments: policybench: %s policy-off row measured no cycles", c.mech)
		}
		out.Micro = append(out.Micro, PolicyMicroRow{
			Mechanism:     c.mech,
			Policy:        c.mode,
			CyclesPerCall: microCycles[i],
			Overhead:      microCycles[i] / off,
		})
	}
	offMacro := make(map[macroCell]float64)
	for i, c := range macros {
		if c.mode == "off" {
			key := c
			key.mode = ""
			offMacro[key] = macroTput[i]
		}
	}
	for i, c := range macros {
		key := c
		key.mode = ""
		off := offMacro[key]
		if off <= 0 {
			return PolicyBenchResult{}, fmt.Errorf("experiments: policybench: %s/%dB/%s policy-off row produced no throughput",
				c.server, c.fileSize, c.mech)
		}
		out.Macro = append(out.Macro, PolicyMacroRow{
			Server:     c.server.String(),
			FileSize:   c.fileSize,
			Mechanism:  c.mech,
			Policy:     c.mode,
			Throughput: macroTput[i],
			Relative:   macroTput[i] / off,
		})
	}
	return out, nil
}

// microCyclesPolicy is microCycles under the given policy layers; SFIP
// modes learn on a first kernel and enforce on the measured one. The
// microbenchmark's syscall 500 joins the alphabet so the automaton
// actually advances on the hot loop.
func microCyclesPolicy(mech string, iters int64, regions, sfip bool) (uint64, error) {
	pol, err := cellPolicy(regions, sfip, func(learn *kernel.PolicyConfig) error {
		learn.SFIPLearn.Track(kernel.NonexistentSyscall)
		_, lerr := microCycles(mech, iters, learn)
		return lerr
	})
	if err != nil {
		return 0, err
	}
	return microCycles(mech, iters, pol)
}
