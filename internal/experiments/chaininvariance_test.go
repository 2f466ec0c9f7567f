package experiments

// Block chaining and hot-trace compilation (internal/cpu chain.go and
// trace.go, DESIGN.md §11) are routing shortcuts on top of superblock
// execution and must be semantically invisible exactly like the layers
// beneath them: every guest, under every interposition mechanism, must
// produce byte-identical syscall traces, interposer observations,
// console output, exit codes and per-task cycle counts whether the
// layers are enabled or disabled — including under chaos injection and
// with telemetry attached. These tests run the same differential matrix
// as the cache- and TLB-invariance suites, toggling chaining and traces
// against the all-on default.

import (
	"sort"
	"strings"
	"testing"

	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/trace"
	"lazypoline/internal/webbench"
)

// chainVariant is one off-toggle combination compared against the all-on
// baseline. disableTraces=false with disableChain=true deliberately
// leaves the trace toggle on: traces ride on chaining, so they must be
// inert anyway (the effective-state contract).
type chainVariant struct {
	name          string
	disableChain  bool
	disableTraces bool
}

var chainVariants = []chainVariant{
	{"no-traces", false, true},
	{"no-chain", true, false},
	{"no-chain-no-traces", true, true},
}

// chainDifferential executes the run builder with chaining and traces on
// and with each variant's layers disabled, requiring byte-identical
// outcomes. Non-vacuity: the on-run must have executed chained
// transitions; runs with chaining off must report zero chain counters,
// and every variant (traces are ineffective in all three) zero trace
// counters.
func chainDifferential(t *testing.T, run func(t *testing.T, cfg kernel.Config) (runOutcome, *kernel.Task)) {
	t.Helper()
	if n := chainDifferentialCounted(t, run); n == 0 {
		t.Error("chaining-on run executed zero chained transitions; the differential is vacuous")
	}
}

// chainDifferentialCounted is chainDifferential without the per-run
// non-vacuity requirement, returning the on-run's chained transition
// count instead. Matrix tests over guests too short or too straight-line
// to re-follow a link (a link is only a shortcut on the SECOND visit to
// a block boundary) use it and assert non-vacuity over the aggregate.
func chainDifferentialCounted(t *testing.T, run func(t *testing.T, cfg kernel.Config) (runOutcome, *kernel.Task)) uint64 {
	t.Helper()
	on, onTask := run(t, kernel.Config{})
	transitions := onTask.CPU.ChainStats().Transitions
	for _, v := range chainVariants {
		off, offTask := run(t, kernel.Config{DisableChaining: v.disableChain, DisableTraces: v.disableTraces})
		if on != off {
			t.Errorf("%s outcome differs from all-on:\n--- all on ---\n%s\n--- %s ---\n%s\nfirst diff: %s",
				v.name, on, v.name, off, firstDiff(on.String(), off.String()))
		}
		if v.disableChain {
			if s := offTask.CPU.ChainStats(); s != (cpu.ChainStats{}) {
				t.Errorf("%s run chained blocks: %+v", v.name, s)
			}
		}
		if s := offTask.CPU.TraceStats(); s != (cpu.TraceStats{}) {
			t.Errorf("%s run executed traces or fused handlers: %+v", v.name, s)
		}
	}
	return transitions
}

func TestChainInvarianceMicrobench(t *testing.T) {
	for _, mech := range invarianceMechs {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			chainDifferential(t, func(t *testing.T, cfg kernel.Config) (runOutcome, *kernel.Task) {
				k := kernel.New(cfg)
				var ground strings.Builder
				k.OnDispatch = groundHook(&ground)
				prog, err := guest.Microbench(kernel.NonexistentSyscall, 300)
				if err != nil {
					t.Fatal(err)
				}
				task, err := prog.Spawn(k)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := attachForTrace(mech, k, task, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Run(-1); err != nil {
					t.Fatal(err)
				}
				if task.ExitCode != 0 {
					t.Fatalf("microbench exited %d", task.ExitCode)
				}
				return finishOutcome(k, task, &ground, rec), task
			})
		})
	}
}

func TestChainInvarianceJIT(t *testing.T) {
	for _, mech := range invarianceMechs {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			chainDifferential(t, func(t *testing.T, cfg kernel.Config) (runOutcome, *kernel.Task) {
				k := kernel.New(cfg)
				if err := k.FS.MkdirAll("/src", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := k.FS.WriteFile(guest.JITSourcePath, []byte(guest.JITSource), 0o644); err != nil {
					t.Fatal(err)
				}
				var ground strings.Builder
				k.OnDispatch = groundHook(&ground)
				prog, err := guest.JIT()
				if err != nil {
					t.Fatal(err)
				}
				task, err := prog.Spawn(k)
				if err != nil {
					t.Fatal(err)
				}
				rec, err := attachForTrace(mech, k, task, false)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Run(50_000_000); err != nil {
					t.Fatal(err)
				}
				if task.ExitCode != task.Tgid {
					t.Fatalf("jit guest exited %d, want pid", task.ExitCode)
				}
				return finishOutcome(k, task, &ground, rec), task
			})
		})
	}
}

func TestChainInvarianceCoreutils(t *testing.T) {
	libcs := []struct {
		name string
		libc guest.Libc
	}{
		{"ubuntu", guest.LibcUbuntu2004(false)},
		{"clearlinux", guest.LibcClearLinux()},
	}
	// The shortest coreutils under non-rewriting mechanisms run cold,
	// mostly straight-line code and may legitimately never re-follow a
	// planted link, so non-vacuity is asserted over the whole matrix.
	var totalTransitions uint64
	for _, name := range guest.CoreutilNames {
		for _, lc := range libcs {
			for _, mech := range invarianceMechs {
				mech := mech
				t.Run(name+"/"+lc.name+"/"+mech, func(t *testing.T) {
					totalTransitions += chainDifferentialCounted(t, func(t *testing.T, cfg kernel.Config) (runOutcome, *kernel.Task) {
						k := kernel.New(cfg)
						for _, dir := range []string{"/tmp", "/etc", "/var/log"} {
							if err := k.FS.MkdirAll(dir, 0o755); err != nil {
								t.Fatal(err)
							}
						}
						paths := make([]string, 0, len(guest.CoreutilFSFiles))
						for path := range guest.CoreutilFSFiles {
							paths = append(paths, path)
						}
						sort.Strings(paths)
						for _, path := range paths {
							if err := k.FS.WriteFile(path, []byte(guest.CoreutilFSFiles[path]), 0o644); err != nil {
								t.Fatal(err)
							}
						}
						var ground strings.Builder
						k.OnDispatch = groundHook(&ground)
						prog, err := guest.Coreutil(name, lc.libc)
						if err != nil {
							t.Fatal(err)
						}
						task, err := prog.Spawn(k)
						if err != nil {
							t.Fatal(err)
						}
						rec, err := attachForTrace(mech, k, task, false)
						if err != nil {
							t.Fatal(err)
						}
						if err := k.Run(50_000_000); err != nil {
							t.Fatal(err)
						}
						if task.ExitCode != 0 {
							t.Fatalf("%s exited %d", name, task.ExitCode)
						}
						return finishOutcome(k, task, &ground, rec), task
					})
				})
			}
		}
	}
	if totalTransitions == 0 {
		t.Error("no coreutil cell executed a chained transition; the whole matrix is vacuous")
	}
}

func TestChainInvarianceWebServers(t *testing.T) {
	for _, style := range []guest.ServerStyle{guest.StyleNginx, guest.StyleLighttpd} {
		for _, mech := range invarianceMechs {
			style, mech := style, mech
			t.Run(style.String()+"/"+mech, func(t *testing.T) {
				run := func(disableChain, disableTraces bool) webbench.Result {
					res, err := webbench.Run(webbench.Config{
						Style:           style,
						Workers:         1,
						FileSize:        1024,
						Connections:     4,
						Requests:        40,
						Attach:          AttachFunc(mech),
						DisableChaining: disableChain,
						DisableTraces:   disableTraces,
					})
					if err != nil {
						t.Fatalf("webbench %s/%s: %v", style, mech, err)
					}
					return res
				}
				on := run(false, false)
				for _, v := range chainVariants {
					off := run(v.disableChain, v.disableTraces)
					if on != off {
						t.Errorf("%s: web server results differ:\non:  %+v\noff: %+v", v.name, on, off)
					}
				}
			})
		}
	}
}

// TestChainInvarianceSMC: the self-modifying-code shapes — lazypoline's
// mprotect-rewrite-mprotect of the page it is executing, and the JIT's
// direct stores into freshly minted code — must be invisible to chained
// transitions and trace execution, which follow cached successor
// pointers across exactly the blocks being rewritten.
func TestChainInvarianceSMC(t *testing.T) {
	t.Run("lazypoline-lazy-rewrite", func(t *testing.T) {
		chainDifferential(t, func(t *testing.T, cfg kernel.Config) (runOutcome, *kernel.Task) {
			k := kernel.New(cfg)
			var ground strings.Builder
			k.OnDispatch = groundHook(&ground)
			prog, err := guest.Microbench(kernel.NonexistentSyscall, 300)
			if err != nil {
				t.Fatal(err)
			}
			task, err := prog.Spawn(k)
			if err != nil {
				t.Fatal(err)
			}
			rec := &trace.Recorder{}
			if err := attachTracing(MechLazypoline, k, task, rec); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(-1); err != nil {
				t.Fatal(err)
			}
			if task.ExitCode != 0 {
				t.Fatalf("microbench exited %d", task.ExitCode)
			}
			return finishOutcome(k, task, &ground, rec), task
		})
	})
	t.Run("jit-direct-store", func(t *testing.T) {
		chainDifferential(t, func(t *testing.T, cfg kernel.Config) (runOutcome, *kernel.Task) {
			k := kernel.New(cfg)
			if err := k.FS.MkdirAll("/src", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := k.FS.WriteFile(guest.JITSourcePath, []byte(guest.JITSource), 0o644); err != nil {
				t.Fatal(err)
			}
			var ground strings.Builder
			k.OnDispatch = groundHook(&ground)
			prog, err := guest.JIT()
			if err != nil {
				t.Fatal(err)
			}
			task, err := prog.Spawn(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := attach(MechBaseline, k, task, false); err != nil {
				t.Fatal(err)
			}
			if err := k.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if task.ExitCode != task.Tgid {
				t.Fatalf("jit guest exited %d, want pid", task.ExitCode)
			}
			return finishOutcome(k, task, &ground, nil), task
		})
	})
}

// TestChainInvarianceChaos: with a fixed fault plan injecting real
// faults, chaining and traces must not shift a single decision — the
// whole outcome, argument-level ground trace and cycle counts included,
// must be identical with the layers on and off.
func TestChainInvarianceChaos(t *testing.T) {
	for _, mech := range []string{MechBaseline, MechLazypoline, MechSUD} {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			on, _ := chaosCoreutilRun(t, "cat", mech, kernel.Config{
				ChaosSeed: chaosInvSeed, ChaosRate: chaosInvRate,
			})
			for _, v := range chainVariants {
				off, _ := chaosCoreutilRun(t, "cat", mech, kernel.Config{
					ChaosSeed: chaosInvSeed, ChaosRate: chaosInvRate,
					DisableChaining: v.disableChain, DisableTraces: v.disableTraces,
				})
				if on != off {
					t.Errorf("%s: chaos outcome differs:\n--- on ---\n%s\n--- off ---\n%s\nfirst diff: %s",
						v.name, on, off, firstDiff(on.String(), off.String()))
				}
			}
		})
	}
}

// TestChainInvarianceTelemetry: a telemetry sink on a chaining-on run
// must stay inert, and must expose the new substrate counters
// non-vacuously — chained transitions and trace activity when on, zeros
// when the layers are off.
func TestChainInvarianceTelemetry(t *testing.T) {
	run := func(cfg kernel.Config) (runOutcome, *kernel.Task) {
		k := kernel.New(cfg)
		var ground strings.Builder
		k.OnDispatch = groundHook(&ground)
		prog, err := guest.Microbench(kernel.NonexistentSyscall, 300)
		if err != nil {
			t.Fatal(err)
		}
		task, err := prog.Spawn(k)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := attachForTrace(MechLazypoline, k, task, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(-1); err != nil {
			t.Fatal(err)
		}
		return finishOutcome(k, task, &ground, rec), task
	}

	plain, _ := run(kernel.Config{})
	sink := telemetry.NewSink()
	observed, _ := run(kernel.Config{Telemetry: sink})
	if plain != observed {
		t.Errorf("telemetry sink perturbed a chained run:\n--- no sink ---\n%s\n--- sink ---\n%s\nfirst diff: %s",
			plain, observed, firstDiff(plain.String(), observed.String()))
	}
	snap := sink.Metrics.Snapshot()
	if snap.Counters["cpu.chain.links"] == 0 || snap.Counters["cpu.chain.transitions"] == 0 {
		t.Errorf("sink saw no chaining on a chaining-on run: links=%d transitions=%d",
			snap.Counters["cpu.chain.links"], snap.Counters["cpu.chain.transitions"])
	}
	traceWork := snap.Counters["cpu.trace.insts"] + snap.Counters["cpu.trace.fused_nop_insts"] +
		snap.Counters["cpu.trace.fused_loop_iters"] + snap.Counters["cpu.trace.fused_stack_insts"]
	if traceWork == 0 {
		t.Error("sink saw zero trace/fused activity on a traces-on run")
	}

	offSink := telemetry.NewSink()
	if _, task := run(kernel.Config{Telemetry: offSink, DisableChaining: true}); task != nil {
		snap := offSink.Metrics.Snapshot()
		for _, key := range []string{
			"cpu.chain.links", "cpu.chain.unlinks", "cpu.chain.transitions",
			"cpu.trace.promotions", "cpu.trace.runs", "cpu.trace.insts",
			"cpu.trace.fused_nop_insts", "cpu.trace.fused_loop_iters", "cpu.trace.fused_stack_insts",
		} {
			if n := snap.Counters[key]; n != 0 {
				t.Errorf("chaining disabled but sink reported %s=%d", key, n)
			}
		}
	}
}
