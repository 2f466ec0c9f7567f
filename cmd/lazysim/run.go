package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"lazypoline/internal/core"
	"lazypoline/internal/experiments"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/ldpreload"
	"lazypoline/internal/loader"
	"lazypoline/internal/policy"
	"lazypoline/internal/ptracer"
	"lazypoline/internal/seccomputil"
	"lazypoline/internal/sud"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/trace"
	"lazypoline/internal/zpoline"
)

// runCmd runs a guest program on the simulated machine under a chosen
// syscall interposition mechanism and prints an strace-style log. The
// program is an assembly source file (.s, assembled on the fly), a
// serialized SELF image produced by `lazysim asm`, or a built-in demo
// guest named with -builtin:
//
//	lazysim run [-mech lazypoline|zpoline|sud|seccomp-user|ptrace|none] program.s
//	lazysim run -builtin jit -mech zpoline
//	lazysim run -builtin attack-jit -mech lazypoline -policy regions
func runCmd(args []string, w io.Writer) error {
	var mech, builtin, policyMode string
	var doTrace, stats bool
	var chaosSeed uint64
	var chaosRate float64
	var o outputs
	f := newFlags("run")
	f.StringVar(&mech, "mech", "lazypoline", "interposition mechanism: lazypoline, lazypoline-noxstate, zpoline, sud, seccomp-user, ptrace, ldpreload, none")
	f.BoolVar(&doTrace, "trace", true, "print an strace-style syscall log")
	f.StringVar(&builtin, "builtin", "", "run a built-in demo guest: jit, microbench, cat, attack-jit, attack-seq")
	f.BoolVar(&stats, "stats", true, "print cycle and mechanism statistics")
	f.StringVar(&policyMode, "policy", "", "syscall policy enforcement: regions, sfip, both (empty = off)")
	f.chaos(&chaosSeed, &chaosRate)
	f.telemetry(&o)
	if err := f.parse(args, 1); err != nil {
		return err
	}
	progArgs := f.Args()

	pol, err := buildPolicy(policyMode, builtin, progArgs)
	if err != nil {
		return err
	}
	sink := o.sink()
	k := kernel.New(kernel.Config{ChaosSeed: chaosSeed, ChaosRate: chaosRate, Telemetry: sink, Policy: pol})
	prog, err := loadProgram(k, builtin, progArgs)
	if err != nil {
		return err
	}
	task, err := k.SpawnImage(prog.Image, prog.Name)
	if err != nil {
		return err
	}

	rec := &trace.Recorder{}
	var ip interpose.Interposer = rec
	var lpStats *core.Runtime
	var zpStats *zpoline.Mechanism
	var mechSyms map[string]uint64
	switch mech {
	case "lazypoline":
		lpStats, err = core.Attach(k, task, ip, core.Options{})
	case "lazypoline-noxstate":
		lpStats, err = core.Attach(k, task, ip, core.Options{NoXStateDefault: true})
	case "zpoline":
		zpStats, err = zpoline.Attach(k, task, ip, zpoline.Options{})
	case "sud":
		var m *sud.Mechanism
		m, err = sud.Attach(k, task, ip)
		if err == nil {
			mechSyms = m.Symbols()
		}
	case "seccomp-user":
		_, err = seccomputil.AttachUser(k, task, ip)
	case "ptrace":
		ptracer.Attach(k, task, ip)
	case "ldpreload":
		var lp *ldpreload.Mechanism
		lp, err = ldpreload.Attach(k, task, ip, prog.Image.Symbols, ldpreload.DefaultWrappers)
		if err == nil {
			mechSyms = lp.Symbols()
			if len(lp.Hooked) == 0 {
				fmt.Fprintln(os.Stderr, "lazysim run: warning: no known wrappers found; nothing hooked")
			}
		}
	case "none":
	default:
		return fmt.Errorf("unknown mechanism %q", mech)
	}
	if err != nil {
		return err
	}
	if lpStats != nil {
		mechSyms = lpStats.Symbols()
	}
	if zpStats != nil {
		mechSyms = zpStats.Symbols()
	}

	if err := k.Run(500_000_000); err != nil {
		return err
	}

	if sink != nil {
		symbols := telemetry.MergeSymbols(prog.Image.Symbols, mechSyms,
			map[string]uint64{"vdso_sigreturn": kernel.VdsoBase})
		if err := o.write(w, sink, nil, symbols); err != nil {
			return err
		}
	}

	if doTrace && mech != "none" {
		for _, e := range rec.Entries() {
			fmt.Fprintln(w, e)
		}
	}
	if out := task.ConsoleOut; len(out) > 0 {
		fmt.Fprintf(w, "--- console ---\n%s", out)
		if out[len(out)-1] != '\n' {
			fmt.Fprintln(w)
		}
	}
	if task.PolicyViolation != "" {
		fmt.Fprintf(w, "--- policy violation: %s ---\n", task.PolicyViolation)
	}
	fmt.Fprintf(w, "--- exit code %d ---\n", task.ExitCode)
	if stats {
		fmt.Fprintf(w, "cycles: %d\n", task.CPU.Cycles)
		if lpStats != nil {
			s := lpStats.Stats
			fmt.Fprintf(w, "lazypoline: %d slow-path hits, %d sites rewritten, %d signals wrapped, %d sigreturns routed\n",
				s.SlowPathHits, s.Rewrites, s.WrappedSignals, s.SigreturnsRouted)
		}
		if zpStats != nil {
			fmt.Fprintf(w, "zpoline: %d sites rewritten at load time (%d bytes scanned)\n",
				zpStats.Stats.Rewritten, zpStats.Stats.ScannedBytes)
		}
	}
	return nil
}

// buildPolicy assembles the kernel's PolicyConfig for -policy. SFIP
// modes need a transition profile: the attack-seq builtin enforces its
// canonical benign profile (the demo is precisely that the attack's
// transition is not in it), while every other guest learns its own
// profile on a plain, uninterposed kernel first — single-task syscall
// transitions over the tracked alphabet are mechanism-invariant, so a
// profile learned under no mechanism is valid under all of them.
func buildPolicy(mode, builtin string, args []string) (*kernel.PolicyConfig, error) {
	if mode == "" {
		return nil, nil
	}
	pol := &kernel.PolicyConfig{}
	var sfip bool
	switch mode {
	case "regions":
		pol.Regions = true
	case "sfip":
		sfip = true
	case "both":
		pol.Regions, sfip = true, true
	default:
		return nil, fmt.Errorf("unknown -policy mode %q (try: regions, sfip, both)", mode)
	}
	if !sfip {
		return pol, nil
	}
	if builtin == "attack-seq" {
		pol.SFIP = guest.AttackSeqProfile()
		return pol, nil
	}
	prof := policy.NewProfile(experiments.SFIPAlphabet()...)
	if builtin == "microbench" {
		prof.Track(kernel.NonexistentSyscall)
	}
	lk := kernel.New(kernel.Config{Policy: &kernel.PolicyConfig{SFIPLearn: prof}})
	prog, err := loadProgram(lk, builtin, args)
	if err != nil {
		return nil, err
	}
	task, err := lk.SpawnImage(prog.Image, prog.Name)
	if err != nil {
		return nil, err
	}
	if err := lk.Run(500_000_000); err != nil {
		return nil, err
	}
	if task.ExitCode != 0 {
		fmt.Fprintf(os.Stderr, "lazysim run: warning: SFIP learning run exited %d; the enforced run may differ\n", task.ExitCode)
	}
	pol.SFIP = prof
	return pol, nil
}

// loadProgram resolves the guest: a builtin, a .s source, or a SELF image.
func loadProgram(k *kernel.Kernel, builtin string, args []string) (*guest.Program, error) {
	switch builtin {
	case "attack-jit":
		return guest.AttackJIT()
	case "attack-seq":
		return guest.AttackSeq()
	case "jit":
		if err := k.FS.MkdirAll("/src", 0o755); err != nil {
			return nil, err
		}
		if err := k.FS.WriteFile(guest.JITSourcePath, []byte(guest.JITSource), 0o644); err != nil {
			return nil, err
		}
		return guest.JIT()
	case "microbench":
		return guest.Microbench(kernel.NonexistentSyscall, 10_000)
	case "cat":
		if err := k.FS.MkdirAll("/tmp", 0o755); err != nil {
			return nil, err
		}
		if err := k.FS.WriteFile("/tmp/file.txt", []byte("hello from the simulated fs\n"), 0o644); err != nil {
			return nil, err
		}
		return guest.Coreutil("cat", guest.LibcUbuntu2004(false))
	case "":
	default:
		return nil, fmt.Errorf("unknown builtin %q (try: jit, microbench, cat, attack-jit, attack-seq)", builtin)
	}

	if len(args) != 1 {
		return nil, fmt.Errorf("expected one program argument (or -builtin)")
	}
	path := args[0]
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm") {
		return guest.Build(path, guest.Header+string(data))
	}
	img, err := loader.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("not a SELF image (%w); use a .s suffix for assembly", err)
	}
	return &guest.Program{Name: path, Image: img}, nil
}
