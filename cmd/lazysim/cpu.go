package main

// cpuCmd measures interpreter throughput — host nanoseconds per simulated
// instruction and simulated MIPS — of the fast execution engine against
// the reference engine (cpu.ExecReference: per-instruction fetch, decode
// and locked memory access) on four workloads:
//
//   - a raw register loop driven through StepBlock — the counted loop
//     `addi r,-1 ; jnz`, which the fast engine retires in closed form, so
//     its fast side is microseconds however many steps are asked for,
//   - the paper's microbenchmark guest running under the full simulated
//     kernel with syscall dispatch in the loop,
//   - a raw load/store sweep driven through StepBlock (the data fast
//     path's best case), and
//   - the MemBench guest — a memory-heavy sweep with one syscall at exit
//     — under the full kernel.
//
// Every workload reports the same comparison: the speedup is the
// reference engine's wall time over the fast engine's. The run fails if
// the load/store sweep's speedup falls below minMemLoop, the
// microbenchmark's below minSpeedup, or MemBench's below minFastpath.
// The decode cache alone is worth most of these floors, so the tiers
// above it are guarded by counters, not timing: the run also fails unless
// every fast run hit the decode cache, retired instructions in superblocks
// and made chained transitions, every workload that touches data memory
// hit the D-TLB, and every reference run advanced none of these. It
// writes BENCH_cpu.json so performance is tracked across commits. The
// simulation is deterministic, so both engines retire the same
// instructions and cycles; the run verifies that as a side effect.

import (
	"fmt"
	"io"
	"time"

	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// ModeResult is one (workload, engine) measurement.
type ModeResult struct {
	// WallSeconds is the best-of-repeat wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// NsPerInstruction is host nanoseconds per simulated instruction.
	NsPerInstruction float64 `json:"ns_per_instruction"`
	// SimulatedMIPS is millions of simulated instructions per host second.
	SimulatedMIPS float64 `json:"simulated_mips"`
}

// Result compares the fast engine against the reference engine on one
// workload.
type Result struct {
	// Instructions retired per run and cycles consumed (identical on both
	// engines).
	Instructions uint64     `json:"instructions"`
	Cycles       uint64     `json:"cycles"`
	Fast         ModeResult `json:"fast"`
	Reference    ModeResult `json:"reference"`
	// Speedup is Reference.WallSeconds / Fast.WallSeconds, or 0 when the
	// fast side was too short to time (see minTimedWall).
	Speedup float64 `json:"speedup"`
	// The fast run's counters; the reference run reports zero for all of
	// them.
	Counters
}

// Counters are a run's fast-engine counters: decode cache, D-TLB,
// instructions retired in superblock loops, block chaining and fused
// handlers.
type Counters struct {
	DecodeCache     cpu.DecodeCacheStats `json:"decode_cache"`
	TLB             cpu.TLBStats         `json:"tlb"`
	SuperblockInsts uint64               `json:"superblock_insts"`
	Chain           cpu.ChainStats       `json:"chain"`
	Fused           cpu.FusedStats       `json:"fused"`
}

type config struct {
	Steps       int64   `json:"raw_loop_steps"`
	Iters       int64   `json:"microbench_iters"`
	MemSweeps   int64   `json:"membench_sweeps"`
	Repeat      int     `json:"repeat"`
	MinMemLoop  float64 `json:"min_memloop_speedup"`
	MinSpeedup  float64 `json:"min_speedup"`
	MinFastpath float64 `json:"min_fastpath_speedup"`
}

// The fast-vs-reference speedup floors.
const (
	minMemLoop  = 2.0 // the load/store sweep
	minSpeedup  = 1.5 // the microbenchmark guest
	minFastpath = 2.0 // the MemBench guest
)

func cpuCmd(args []string, w io.Writer) error {
	cfg := config{
		Steps: 5_000_000, Iters: 100_000, MemSweeps: 500, Repeat: 3,
		MinMemLoop: minMemLoop, MinSpeedup: minSpeedup, MinFastpath: minFastpath,
	}
	var out string
	f := newFlags("cpu")
	f.Int64Var(&cfg.Steps, "steps", cfg.Steps, "instructions to retire in the raw register loop")
	f.iters(&cfg.Iters)
	f.Int64Var(&cfg.MemSweeps, "memsweeps", cfg.MemSweeps, "data-segment sweeps in the memory workloads")
	f.IntVar(&cfg.Repeat, "repeat", cfg.Repeat, "timed repetitions per engine (best is kept)")
	f.out(&out, "BENCH_cpu.json")
	if err := f.parse(args, 0); err != nil {
		return err
	}

	begin := time.Now()
	workloads := []struct {
		key, name string
		run       func(config, cpu.ExecMode, bool) (runSample, error)
		data      bool // touches data memory, so its fast run must hit the D-TLB
	}{
		{"raw_loop", "raw register loop", rawLoop, false},
		{"microbench", "microbench guest (full kernel)", guestRun(func(cfg config) (*guest.Program, error) {
			return guest.Microbench(kernel.NonexistentSyscall, cfg.Iters)
		}), true},
		{"mem_loop", "raw load/store sweep", memLoop, true},
		// A nonzero MemBench exit means its self-check failed.
		{"membench", "membench guest (full kernel)", guestRun(func(cfg config) (*guest.Program, error) {
			return guest.MemBench(cfg.MemSweeps)
		}), true},
	}
	results := make(map[string]Result, len(workloads))
	fmt.Fprintf(w, "CPU interpreter throughput, fast vs reference engine (best of %d)\n\n", cfg.Repeat)
	for _, wl := range workloads {
		r, err := measure(cfg, wl.run, wl.data)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.key, err)
		}
		report(w, wl.name, r)
		results[wl.key] = r
	}
	if err := writeSnapshot(w, out, "cpu", 1, time.Since(begin), cfg, results); err != nil {
		return err
	}

	for _, floor := range []struct {
		key  string
		min  float64
		name string
	}{
		{"mem_loop", cfg.MinMemLoop, "load/store sweep"},
		{"microbench", cfg.MinSpeedup, "microbench"},
		{"membench", cfg.MinFastpath, "membench"},
	} {
		if got := results[floor.key].Speedup; got < floor.min {
			return fmt.Errorf("%s fast-vs-reference speedup %.2fx is below the %.2fx floor", floor.name, got, floor.min)
		}
	}
	return nil
}

func report(w io.Writer, name string, r Result) {
	fmt.Fprintf(w, "%s — %d instructions\n", name, r.Instructions)
	fmt.Fprintf(w, "  fast       %8.2f ns/insn  %8.1f simulated MIPS\n",
		r.Fast.NsPerInstruction, r.Fast.SimulatedMIPS)
	fmt.Fprintf(w, "  reference  %8.2f ns/insn  %8.1f simulated MIPS\n",
		r.Reference.NsPerInstruction, r.Reference.SimulatedMIPS)
	ratio := fmt.Sprintf("%8.2fx", r.Speedup)
	if r.Speedup == 0 {
		ratio = fmt.Sprintf("      n/a (fast side ran %.0f µs, too short to time)", r.Fast.WallSeconds*1e6)
	}
	fmt.Fprintf(w, "  speedup    %s   (cache: %d hits, %d builds; tlb: %d hits, %d misses; superblock insts: %d)\n",
		ratio, r.DecodeCache.Hits, r.DecodeCache.Builds, r.TLB.Hits, r.TLB.Misses, r.SuperblockInsts)
	fmt.Fprintf(w, "                         (chain: %d links, %d transitions; fused loop iters: %d, fused nops: %d, fused stack insts: %d)\n\n",
		r.Chain.Links, r.Chain.Transitions, r.Fused.FusedLoopIters, r.Fused.FusedNopInsts, r.Fused.FusedStackInsts)
}

// runSample is one measured run of a workload.
type runSample struct {
	insns  uint64
	cycles uint64
	wall   float64
	Counters
}

// sample fills s's cycles and counters from the CPU a run ended on.
func (s *runSample) sample(c *cpu.CPU) {
	s.cycles = c.Cycles
	s.Counters = Counters{c.DecodeCacheStats(), c.TLBStats(), c.SuperblockInsts, c.ChainStats(), c.FusedStats()}
}

// rawLoop drives the BenchmarkCPUStep register loop through StepBlock.
// The loop is the counted loop `addi rcx,-1 ; jnz`, so the fast side is
// one closed-form update per StepBlock call: its wall time does not grow
// with -steps, and no speedup is reported against it.
func rawLoop(cfg config, mode cpu.ExecMode, instrument bool) (s runSample, err error) {
	var e isa.Enc
	e.MovImm64(isa.RCX, 1<<60)
	loop := e.Len()
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	as := mem.NewAddressSpace()
	if err := as.MapFixed(0x1000, mem.PageSize, mem.ProtRWX); err != nil {
		return s, err
	}
	if err := as.WriteAt(0x1000, e.Buf); err != nil {
		return s, err
	}
	c := cpu.NewExec(as, mode)
	c.RIP = 0x1000
	if instrument {
		c.Hook = func(uint64, isa.Inst) { s.insns++ }
	}
	budget := uint64(cfg.Steps)
	start := time.Now()
	for retired := uint64(0); retired < budget; {
		ev, n, _ := c.StepBlock(budget - retired)
		if ev != cpu.EvNone {
			return s, fmt.Errorf("raw loop stopped with event %v (%v)", ev, c.FaultErr)
		}
		retired += n
	}
	s.wall = time.Since(start).Seconds()
	s.sample(c)
	return s, nil
}

// guestRun runs the program build makes to exit under the full kernel
// and samples its task.
func guestRun(build func(config) (*guest.Program, error)) func(config, cpu.ExecMode, bool) (runSample, error) {
	return func(cfg config, mode cpu.ExecMode, instrument bool) (s runSample, err error) {
		prog, err := build(cfg)
		if err != nil {
			return s, err
		}
		k := kernel.New(kernel.Config{Exec: mode})
		task, err := prog.Spawn(k)
		if err != nil {
			return s, err
		}
		if instrument {
			task.CPU.Hook = func(uint64, isa.Inst) { s.insns++ }
		}
		start := time.Now()
		if err := k.Run(-1); err != nil {
			return s, err
		}
		s.wall = time.Since(start).Seconds()
		if task.ExitCode != 0 {
			return s, fmt.Errorf("guest exited %d", task.ExitCode)
		}
		s.sample(task.CPU)
		return s, nil
	}
}

// minTimedWall is the shortest wall time worth dividing by: below it a
// run is timer resolution and call overhead, not work.
const minTimedWall = 100e-6

// modeResult derives the per-instruction figures of one timed run. A run
// too short to time reports no MIPS rather than an arbitrary huge one.
func modeResult(insns uint64, wall float64) ModeResult {
	m := ModeResult{WallSeconds: wall, NsPerInstruction: wall * 1e9 / float64(insns)}
	if wall >= minTimedWall {
		m.SimulatedMIPS = float64(insns) / wall / 1e6
	}
	return m
}

// speedup is slow/fast, or 0 when the fast side ran too briefly to time:
// a ratio against microseconds is noise, not a speedup.
func speedup(slow, fast float64) float64 {
	if fast < minTimedWall {
		return 0
	}
	return slow / fast
}

// memLoopProgram encodes the raw load/store sweep: `sweeps` passes over
// `pages` RW pages at a 64-byte stride, each step a store, a dependent
// load, and the loop bookkeeping, ending in a syscall.
func memLoopProgram(sweeps int64, pages uint64, dataBase uint64) []byte {
	steps := int64(pages) * int64(mem.PageSize) / 64
	var e isa.Enc
	e.MovImm64(isa.RCX, sweeps)
	outer := e.Len()
	e.MovImm64(isa.RBX, int64(dataBase))
	e.MovImm64(isa.RSI, steps)
	inner := e.Len()
	e.Store(isa.RBX, 0, isa.RCX)
	e.Load(isa.RDX, isa.RBX, 0)
	e.AddImm(isa.RBX, 64)
	e.AddImm(isa.RSI, -1)
	e.Jnz(int64(inner) - int64(e.Len()) - 5)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(outer) - int64(e.Len()) - 5)
	e.Syscall()
	return e.Buf
}

// memLoop drives the raw sweep through StepBlock the way the kernel
// does; on the reference engine StepBlock is per-instruction dispatch,
// which is exactly the cost superblocks eliminate.
func memLoop(cfg config, mode cpu.ExecMode, instrument bool) (s runSample, err error) {
	const (
		codeBase = 0x1000
		dataBase = 0x100000
		pages    = 16
	)
	as := mem.NewAddressSpace()
	if err := as.MapFixed(codeBase, mem.PageSize, mem.ProtRX); err != nil {
		return s, err
	}
	if err := as.WriteForce(codeBase, memLoopProgram(cfg.MemSweeps, pages, dataBase)); err != nil {
		return s, err
	}
	if err := as.MapFixed(dataBase, pages*mem.PageSize, mem.ProtRW); err != nil {
		return s, err
	}
	c := cpu.NewExec(as, mode)
	c.RIP = codeBase
	if instrument {
		c.Hook = func(uint64, isa.Inst) { s.insns++ }
	}
	start := time.Now()
	for {
		ev, _, _ := c.StepBlock(1 << 20)
		if ev == cpu.EvSyscall {
			break
		}
		if ev != cpu.EvNone {
			return s, fmt.Errorf("mem loop stopped with event %v (%v)", ev, c.FaultErr)
		}
	}
	s.wall = time.Since(start).Seconds()
	s.sample(c)
	return s, nil
}

// measure counts a workload's instructions in one untimed instrumented
// run, keeps the best of cfg.Repeat timed runs per engine, and checks
// that all of them consumed the same cycles and that each engine ran as
// itself (checkEngines).
func measure(cfg config, run func(config, cpu.ExecMode, bool) (runSample, error), data bool) (Result, error) {
	ref, err := run(cfg, cpu.ExecFast, true)
	if err != nil {
		return Result{}, err
	}
	best := func(mode cpu.ExecMode) (runSample, error) {
		var kept runSample
		for r := 0; r < cfg.Repeat; r++ {
			s, err := run(cfg, mode, false)
			if err != nil {
				return kept, err
			}
			if kept.wall == 0 || s.wall < kept.wall {
				kept = s
			}
		}
		return kept, nil
	}
	fast, err := best(cpu.ExecFast)
	if err != nil {
		return Result{}, err
	}
	slow, err := best(cpu.ExecReference)
	if err != nil {
		return Result{}, err
	}
	if ref.cycles != fast.cycles || fast.cycles != slow.cycles {
		return Result{}, fmt.Errorf("cycle counts diverged: instrumented=%d fast=%d reference=%d (the engines must be semantically identical)",
			ref.cycles, fast.cycles, slow.cycles)
	}
	if err := checkEngines(fast, slow, data); err != nil {
		return Result{}, err
	}
	return Result{
		Instructions: ref.insns,
		Cycles:       fast.cycles,
		Fast:         modeResult(ref.insns, fast.wall),
		Reference:    modeResult(ref.insns, slow.wall),
		Speedup:      speedup(slow.wall, fast.wall),
		Counters:     fast.Counters,
	}, nil
}

// checkEngines fails unless the fast run used the decode cache,
// superblocks, block chaining and, for a workload that touches data
// memory, the D-TLB, and the reference run none of the fast engine's
// tiers. A speedup floor alone would still pass with only the decode
// cache engaged.
func checkEngines(fast, slow runSample, data bool) error {
	if fast.DecodeCache.Hits == 0 || fast.SuperblockInsts == 0 || fast.Chain.Transitions == 0 || (data && fast.TLB.Hits == 0) {
		return fmt.Errorf("a fast-engine tier did not engage: %+v", fast.Counters)
	}
	if slow.Counters != (Counters{}) {
		return fmt.Errorf("the reference engine used a fast-engine tier: %+v", slow.Counters)
	}
	return nil
}
