package experiments

// TestExecEquivalence is the one equivalence harness for everything that
// must be invisible to the simulation: the execution engine (the fast
// engine against the reference engine, cpu.ExecReference), a telemetry
// sink (DESIGN.md §9), a chaos engine at rate 0 (§8) and an all-off
// policy (§6), alone and in the combinations below. Each cell — a guest
// under one interposition mechanism — runs once in its default
// configuration, and every variant must reproduce that run byte for byte:
// exit code, console, per-task cycle counts, the argument-level ground
// trace and the interposer-observed trace (webbench's Result for the web
// servers). Non-vacuity is checked on the runs themselves: every fast run
// used the decode cache, the D-TLB and superblocks, every fast
// microbenchmark run also chained blocks and ran traces or fused
// handlers, every reference run used none of them, and every sink
// recorded the run, published the CPU's fast-engine counters and
// attributed its syscalls to the mechanism's dispatch path.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/trace"
	"lazypoline/internal/webbench"
)

// invarianceMechs is the complete mechanism registry, including the
// ablation variants.
var invarianceMechs = []string{
	MechBaseline, MechBaselineSUD, MechZpoline, MechLazypolineNX,
	MechLazypoline, MechLazypolineMPK, MechSUD, MechSeccompUser, MechPtrace,
}

// tracingMechs is the subset with a tracing attach; for these the
// interposer-observed trace is part of the compared outcome.
var tracingMechs = map[string]bool{
	MechZpoline: true, MechLazypolineNX: true, MechLazypoline: true,
	MechSUD: true, MechSeccompUser: true, MechPtrace: true,
}

// telemetryMechPath maps each mechanism to the dispatch path its
// application syscalls must be attributed to.
var telemetryMechPath = map[string]string{
	MechBaseline:      "direct",
	MechBaselineSUD:   "sud-allow",
	MechZpoline:       "trampoline",
	MechLazypolineNX:  "trampoline",
	MechLazypoline:    "trampoline",
	MechLazypolineMPK: "trampoline",
	MechSUD:           "sud-range",
	MechSeccompUser:   "seccomp",
	MechPtrace:        "ptrace",
}

// runOutcome is everything observable from one guest run. Two runs are
// equivalent iff their runOutcomes are byte-identical.
type runOutcome struct {
	Exit    int
	Cycles  string // per-task cycle counts, in task order
	Console string
	Ground  string // kernel dispatch-level trace, with arguments
	Trace   string // interposer-observed trace ("" when not traced)
}

func (o runOutcome) String() string {
	return fmt.Sprintf("exit=%d\ncycles=%s\nconsole=%q\nground:\n%s\ntrace:\n%s",
		o.Exit, o.Cycles, o.Console, o.Ground, o.Trace)
}

// groundHook records the dispatch-level ground truth including task IDs
// and full argument vectors — stricter than trace.GroundTruth, which
// keeps only syscall numbers.
func groundHook(sb *strings.Builder) func(*kernel.Task, int64, [6]uint64) {
	return func(t *kernel.Task, nr int64, args [6]uint64) {
		fmt.Fprintf(sb, "%d %s %x\n", t.ID, kernel.SyscallName(nr), args)
	}
}

// finishOutcome assembles the outcome after k.Run completed.
func finishOutcome(k *kernel.Kernel, main *kernel.Task, ground *strings.Builder, rec *trace.Recorder) runOutcome {
	var cycles strings.Builder
	for _, t := range k.Tasks() {
		fmt.Fprintf(&cycles, "%d:%d ", t.ID, t.CPU.Cycles)
	}
	o := runOutcome{
		Exit:    main.ExitCode,
		Cycles:  cycles.String(),
		Console: string(main.ConsoleOut),
		Ground:  ground.String(),
	}
	if rec != nil {
		var tr strings.Builder
		for _, e := range rec.Entries() {
			fmt.Fprintf(&tr, "%s\n", e.String())
		}
		o.Trace = tr.String()
	}
	return o
}

func firstDiff(a, b string) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(i-40, 0)
			return fmt.Sprintf("at byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// attachForTrace installs the mechanism, with a Recorder when the
// mechanism supports tracing and a Dummy interposer otherwise. A tracing
// attach never pre-rewrites: lazypoline's sites go through the SIGSYS
// slow path, which rewrites the page being executed.
func attachForTrace(mech string, k *kernel.Kernel, task *kernel.Task, preRewrite bool) (*trace.Recorder, error) {
	if tracingMechs[mech] {
		rec := &trace.Recorder{}
		_, err := attach(mech, k, task, rec, false)
		return rec, err
	}
	_, err := attach(mech, k, task, interpose.Dummy{}, preRewrite)
	return nil, err
}

// guestSpec is one single-machine guest and how a cell runs it.
type guestSpec struct {
	spawn      func(*kernel.Kernel) (*kernel.Task, error)
	preRewrite bool  // passed to attachForTrace
	budget     int64 // k.Run's step limit
	// exit is the exit code every run of a cell must end with; -1 means
	// the pid.
	exit int
}

// runGuest runs g under mech with cfg and returns its outcome, whatever
// the guest's exit.
func runGuest(t *testing.T, mech string, cfg kernel.Config, g guestSpec) (runOutcome, *kernel.Task) {
	t.Helper()
	k := kernel.New(cfg)
	var ground strings.Builder
	k.OnDispatch = groundHook(&ground)
	task, err := g.spawn(k)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := attachForTrace(mech, k, task, g.preRewrite)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(g.budget); err != nil {
		t.Fatal(err)
	}
	return finishOutcome(k, task, &ground, rec), task
}

func spawnJIT(k *kernel.Kernel) (*kernel.Task, error) {
	if err := k.FS.MkdirAll("/src", 0o755); err != nil {
		return nil, err
	}
	if err := k.FS.WriteFile(guest.JITSourcePath, []byte(guest.JITSource), 0o644); err != nil {
		return nil, err
	}
	prog, err := guest.JIT()
	if err != nil {
		return nil, err
	}
	return prog.Spawn(k)
}

// spawnCoreutil spawns one utility over its fixture files, created in
// sorted order so map iteration never differs between compared runs.
func spawnCoreutil(name string, libc guest.Libc) func(*kernel.Kernel) (*kernel.Task, error) {
	return func(k *kernel.Kernel) (*kernel.Task, error) {
		for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
			if err := k.FS.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		paths := make([]string, 0, len(guest.CoreutilFSFiles))
		for path := range guest.CoreutilFSFiles {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if err := k.FS.WriteFile(path, []byte(guest.CoreutilFSFiles[path]), 0o644); err != nil {
				return nil, err
			}
		}
		prog, err := guest.Coreutil(name, libc)
		if err != nil {
			return nil, err
		}
		return prog.Spawn(k)
	}
}

// execVariant is one configuration change every cell run under it must
// be invisible to.
type execVariant struct {
	name string
	mod  func(*kernel.Config)
}

var (
	reference = execVariant{"reference", func(c *kernel.Config) { c.Exec = cpu.ExecReference }}
	withSink  = execVariant{"telemetry", func(c *kernel.Config) { c.Telemetry = telemetry.NewSink() }}
	chaosZero = execVariant{"chaos-rate-0", func(c *kernel.Config) { c.ChaosSeed, c.ChaosRate = chaosInvSeed, 0 }}
	policyOff = execVariant{"policy-off", func(c *kernel.Config) { c.Policy = &kernel.PolicyConfig{} }}
)

// and combines variants into one.
func and(vs ...execVariant) execVariant {
	v := execVariant{mod: func(c *kernel.Config) {
		for _, v := range vs {
			v.mod(c)
		}
	}}
	for i, x := range vs {
		if i > 0 {
			v.name += "+"
		}
		v.name += x.name
	}
	return v
}

// execCell is one row of the matrix: a guest, the configuration its
// default run uses, the mechanisms and the variants.
type execCell struct {
	name     string
	base     kernel.Config
	variants []execVariant
	// guest runs a single-machine guest; web, when set instead, runs a
	// web server cell through webbench.
	guest guestSpec
	web   *guest.ServerStyle
	// chains marks a cell whose fast runs must, under every mechanism,
	// make chained block transitions and, under a stub mechanism, retire
	// stack runs.
	chains bool
}

// execRun is what one run of a cell leaves to compare and check.
type execRun struct {
	out string
	// engine is the main task's fast-engine counters (engineCounters);
	// nil for a web cell.
	engine map[string]uint64
}

func (c execCell) run(t *testing.T, mech string, cfg kernel.Config) execRun {
	t.Helper()
	if c.web == nil {
		out, task := runGuest(t, mech, cfg, c.guest)
		want := c.guest.exit
		if want == -1 {
			want = task.Tgid
		}
		if out.Exit != want {
			t.Fatalf("%s: guest exited %d, want %d", mech, out.Exit, want)
		}
		return execRun{out.String(), engineCounters(task.CPU)}
	}
	res, err := webbench.Run(webbench.Config{
		Style:       *c.web,
		Workers:     1,
		FileSize:    1024,
		Connections: 4,
		Requests:    40,
		Attach:      AttachFunc(mech),
		Exec:        cfg.Exec,
		ChaosSeed:   cfg.ChaosSeed,
		ChaosRate:   cfg.ChaosRate,
		Telemetry:   cfg.Telemetry,
		Policy:      cfg.Policy,
	})
	if err != nil {
		t.Fatalf("webbench %s/%s: %v", c.web, mech, err)
	}
	return execRun{out: fmt.Sprintf("%+v", res)}
}

// fastCounters are the telemetry counters only the fast engine advances,
// in engineCounters' order.
var fastCounters = []string{
	"cpu.decode_cache.hits", "cpu.decode_cache.misses", "cpu.decode_cache.builds",
	"cpu.decode_cache.invalidations", "cpu.decode_cache.rebind_flushes", "cpu.decode_cache.overflow_evictions",
	"cpu.tlb.hits", "cpu.tlb.misses", "cpu.tlb.evictions", "cpu.tlb.flushes",
	"cpu.superblock.runs", "cpu.superblock.insts",
	"cpu.chain.links", "cpu.chain.unlinks", "cpu.chain.transitions",
	"cpu.trace.fused_nop_insts", "cpu.trace.fused_loop_iters", "cpu.trace.fused_stack_insts",
}

// engineCounters reads c's fast-engine counters, keyed by the names the
// kernel's telemetry collector publishes them under.
func engineCounters(c *cpu.CPU) map[string]uint64 {
	cs, ls, hs, fs := c.DecodeCacheStats(), c.TLBStats(), c.ChainStats(), c.FusedStats()
	n := make(map[string]uint64, len(fastCounters))
	for i, v := range []uint64{
		cs.Hits, cs.Misses, cs.Builds, cs.Invalidations, cs.RebindFlushes, cs.OverflowEvictions,
		ls.Hits, ls.Misses, ls.Evictions, ls.Flushes,
		c.SuperblockRuns, c.SuperblockInsts,
		hs.Links, hs.Unlinks, hs.Transitions,
		fs.FusedNopInsts, fs.FusedLoopIters, fs.FusedStackInsts,
	} {
		n[fastCounters[i]] = v
	}
	return n
}

// stubMechs are the mechanisms whose entry stub TestStubRetiresAsStackRuns
// counts: each interposed syscall saves and restores registers in stack
// runs.
var stubMechs = []string{MechZpoline, MechLazypolineNX, MechLazypoline, MechLazypolineMPK}

// checkEngine fails unless a run's fast-engine counters match its
// engine: all zero on the reference engine; on the fast engine the decode
// cache, the D-TLB and superblocks at work and, for a chains cell, block
// chaining too, and stack runs under a stub mechanism.
func checkEngine(t *testing.T, run execRun, exec cpu.ExecMode, chains bool, mech string) {
	t.Helper()
	n := run.engine
	if exec == cpu.ExecReference {
		for _, key := range fastCounters {
			if n[key] != 0 {
				t.Errorf("the reference run used a fast-engine tier: %s=%d", key, n[key])
			}
		}
		return
	}
	for _, key := range []string{"cpu.decode_cache.hits", "cpu.tlb.hits", "cpu.superblock.insts"} {
		if n[key] == 0 {
			t.Errorf("the fast run reported %s=0 (vacuous)", key)
		}
	}
	if !chains {
		return
	}
	if n["cpu.chain.transitions"] == 0 {
		t.Errorf("the fast run made no chained transitions (vacuous)")
	}
	if slices.Contains(stubMechs, mech) && n["cpu.trace.fused_stack_insts"] == 0 {
		t.Errorf("the fast run retired no stack runs under %s (vacuous)", mech)
	}
}

// checkSink fails unless the sink recorded the run and attributed its
// syscalls to mech's dispatch path, and unless it published the run's
// fast-engine counters: for a single-machine cell exactly the main task's
// (engine), for a web cell, whose runs expose no CPU, zero on the
// reference engine and the three base tiers at work on the fast one.
func checkSink(t *testing.T, mech string, web bool, sink *telemetry.Sink, exec cpu.ExecMode, engine map[string]uint64) {
	t.Helper()
	snap := sink.Metrics.Snapshot()
	if snap.Counters["cpu.cycles_total"] == 0 || snap.Counters["sched.quanta"] == 0 {
		t.Errorf("substrate counters empty: cycles=%d quanta=%d",
			snap.Counters["cpu.cycles_total"], snap.Counters["sched.quanta"])
	}
	if sink.Timeline.Len() == 0 || sink.Profiler.TotalWeight() == 0 {
		t.Errorf("the sink recorded %d timeline events and %d profiler cycles", sink.Timeline.Len(), sink.Profiler.TotalWeight())
	}
	if path := telemetryMechPath[mech]; snap.Counters["kernel.dispatch."+path+".calls"] == 0 {
		t.Errorf("no syscalls attributed to the expected path %q; dispatch counters: %v",
			path, dispatchCounters(snap))
	}
	if web && snap.Counters["net.conns_accepted"] == 0 {
		t.Error("netstack counters empty under a network workload")
	}
	switch {
	case !web:
		for _, key := range fastCounters {
			if got, want := snap.Counters[key], engine[key]; got != want {
				t.Errorf("the sink reported %s=%d, the CPU counted %d", key, got, want)
			}
		}
	case exec == cpu.ExecReference:
		for _, key := range fastCounters {
			if n := snap.Counters[key]; n != 0 {
				t.Errorf("reference engine, but the sink reported %s=%d", key, n)
			}
		}
	default:
		for _, key := range []string{"cpu.decode_cache.hits", "cpu.tlb.hits", "cpu.superblock.insts"} {
			if snap.Counters[key] == 0 {
				t.Errorf("fast engine, but the sink reported %s=0 (vacuous)", key)
			}
		}
	}
}

// dispatchCounters filters a snapshot down to the kernel.dispatch.*
// counters, for failure messages.
func dispatchCounters(snap telemetry.Snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "kernel.dispatch.") {
			out[name] = v
		}
	}
	return out
}

// execCells is the matrix. The microbench cell under lazypoline is also
// the lazy-rewrite self-modifying-code cell (every site is rewritten
// through the SIGSYS slow path on the page being executed), and the JIT
// cell under baseline the direct-store one (the guest stores a routine
// into RWX memory and calls it).
func execCells() []execCell {
	micro := guestSpec{spawn: spawnMicro, preRewrite: true, budget: -1}
	attackJIT := guestSpec{spawn: spawnAttackJIT, preRewrite: true, budget: -1, exit: guest.AttackJITExit}
	attackSeq := guestSpec{spawn: spawnAttackSeq, preRewrite: true, budget: -1, exit: guest.AttackSeqExit}
	policyChaos := kernel.Config{ChaosSeed: 7, ChaosRate: 0.3}
	policyVariants := []execVariant{reference, policyOff, and(policyOff, reference), and(policyOff, withSink)}

	cells := []execCell{
		{name: "microbench", guest: micro, chains: true, variants: []execVariant{
			reference, withSink, and(reference, withSink), policyOff, and(policyOff, reference), and(policyOff, withSink),
		}},
		{name: "microbench-chaos", guest: micro, base: policyChaos, variants: []execVariant{reference, policyOff}},
		{name: "jit", guest: guestSpec{spawn: spawnJIT, budget: 50_000_000, exit: -1}, variants: []execVariant{reference, withSink}},
	}
	for _, name := range guest.CoreutilNames {
		for _, lc := range []struct {
			name string
			libc guest.Libc
		}{
			{"ubuntu", guest.LibcUbuntu2004(false)},
			{"clearlinux", guest.LibcClearLinux()},
		} {
			cell := execCell{
				name:     name + "/" + lc.name,
				guest:    guestSpec{spawn: spawnCoreutil(name, lc.libc), budget: 50_000_000},
				variants: []execVariant{reference, withSink},
			}
			if name == "cat" && lc.name == "ubuntu" {
				cell.variants = append(cell.variants, chaosZero)
			}
			cells = append(cells, cell)
		}
	}
	for _, style := range []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd} {
		cells = append(cells, execCell{name: style.String(), web: &style,
			variants: []execVariant{withSink, and(reference, withSink)}})
	}
	return append(cells,
		execCell{name: "chaos-cat", base: kernel.Config{ChaosSeed: chaosInvSeed, ChaosRate: chaosInvRate},
			guest:    guestSpec{spawn: spawnCoreutil("cat", guest.LibcUbuntu2004(false)), budget: 100_000_000},
			variants: []execVariant{reference}},
		execCell{name: "attack-jit", guest: attackJIT, variants: policyVariants},
		execCell{name: "attack-seq", guest: attackSeq, variants: policyVariants},
		execCell{name: "attack-jit-chaos", guest: attackJIT, base: policyChaos, variants: []execVariant{reference, policyOff}},
		execCell{name: "attack-seq-chaos", guest: attackSeq, base: policyChaos, variants: []execVariant{reference, policyOff}},
	)
}

func TestExecEquivalence(t *testing.T) {
	for _, cell := range execCells() {
		for _, mech := range invarianceMechs {
			t.Run(cell.name+"/"+mech, func(t *testing.T) {
				def := cell.run(t, mech, cell.base)
				if def.engine != nil {
					checkEngine(t, def, cell.base.Exec, cell.chains, mech)
				}
				for _, v := range cell.variants {
					t.Run(v.name, func(t *testing.T) {
						cfg := cell.base
						v.mod(&cfg)
						got := cell.run(t, mech, cfg)
						if got.out != def.out {
							t.Errorf("outcome differs from the default run:\n--- default ---\n%s\n--- %s ---\n%s\nfirst diff: %s",
								def.out, v.name, got.out, firstDiff(def.out, got.out))
						}
						if got.engine != nil {
							checkEngine(t, got, cfg.Exec, cell.chains, mech)
						}
						if cfg.Telemetry != nil {
							checkSink(t, mech, cell.web != nil, cfg.Telemetry, cfg.Exec, got.engine)
						}
					})
				}
			})
		}
	}
}
