package experiments

import (
	"fmt"
	"testing"
	"time"

	"lazypoline/internal/cpu"
	"lazypoline/internal/guest"
	"lazypoline/internal/isa"
	"lazypoline/internal/kernel"
	"lazypoline/internal/mem"
)

// engineRun is one run of a workload on one engine: the cycles it
// consumed, its host wall time and the fast-engine counters of the CPU it
// ended on (engineCounters).
type engineRun struct {
	cycles uint64
	wall   time.Duration
	engine map[string]uint64
}

// TestEngineSpeedupFloors holds the fast engine (DESIGN.md §3) to a
// host-time speedup over the reference engine: 2.0x on mem_loop, a raw
// load/store sweep driven through StepBlock; 1.5x on the paper's
// microbenchmark guest under the full kernel; 2.0x on the self-checking
// MemBench guest. Fast and reference runs alternate, three of each, and
// the best of each side is compared, so a swing in host speed hits both.
// The decode cache alone clears these floors, so the tiers above it are
// held by counters: every fast run must hit the decode cache, retire
// superblock instructions, find blocks in the block table (raw_loop:
// retire countdown iterations in closed form, since the loop closes on
// first entry) and (when it touches data) hit the D-TLB, and every
// reference run must show none of these. Every run of a workload must
// consume the same cycles on both engines.
// raw_loop, the counted loop the fast engine retires in closed form
// (§3), has no floor: its fast side takes microseconds, and it checks
// only that the closed form consumes the cycles of a million steps.
func TestEngineSpeedupFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation swamps host-time ratios")
	}
	workloads := []struct {
		name  string
		run   func(cpu.ExecMode) (engineRun, error)
		floor float64 // 0: no speedup floor
		data  bool    // touches data memory, so a fast run must hit the D-TLB
		loop  string  // the counter of the tier that runs the workload's loop
	}{
		{"raw_loop", rawLoopRun, 0, false, "cpu.trace.fused_loop_iters"},
		{"mem_loop", memLoopRun, 2.0, true, "cpu.decode_cache.table_hits"},
		{"microbench", guestEngineRun(func() (*guest.Program, error) {
			return guest.Microbench(kernel.NonexistentSyscall, 20_000)
		}), 1.5, true, "cpu.decode_cache.table_hits"},
		{"membench", guestEngineRun(func() (*guest.Program, error) { return guest.MemBench(200) }), 2.0, true, "cpu.decode_cache.table_hits"},
	}
	for _, w := range workloads {
		tiers := []string{"cpu.decode_cache.hits", "cpu.superblock.insts", w.loop}
		if w.data {
			tiers = append(tiers, "cpu.tlb.hits")
		}
		var best [2]time.Duration // fast, reference
		var cycles uint64
		for round := 0; round < 3; round++ {
			for i, mode := range []cpu.ExecMode{cpu.ExecFast, cpu.ExecReference} {
				r, err := w.run(mode)
				if err != nil {
					t.Fatalf("%s on the %v engine: %v", w.name, mode, err)
				}
				if cycles == 0 {
					cycles = r.cycles
				} else if r.cycles != cycles {
					t.Fatalf("%s: the %v engine consumed %d cycles, an earlier run %d", w.name, mode, r.cycles, cycles)
				}
				// The reference engine must advance no fast-engine
				// counter, the fast engine each tier the workload uses.
				keys, engaged := fastCounters, false
				if mode == cpu.ExecFast {
					keys, engaged = tiers, true
				}
				for _, key := range keys {
					if (r.engine[key] != 0) != engaged {
						t.Fatalf("%s on the %v engine: %s = %d", w.name, mode, key, r.engine[key])
					}
				}
				if best[i] == 0 || r.wall < best[i] {
					best[i] = r.wall
				}
			}
		}
		if w.floor == 0 {
			t.Logf("%s: %d cycles on both engines", w.name, cycles)
			continue
		}
		speedup := float64(best[1]) / float64(best[0])
		t.Logf("%s: %d cycles; fast %v, reference %v, %.2fx", w.name, cycles, best[0], best[1], speedup)
		if speedup < w.floor {
			t.Errorf("%s: fast-vs-reference speedup %.2fx is below the %.2fx floor", w.name, speedup, w.floor)
		}
	}
}

// rawLoopRun drives the counted loop `addi rcx,-1 ; jnz` through
// StepBlock for a million steps.
func rawLoopRun(mode cpu.ExecMode) (engineRun, error) {
	var e isa.Enc
	e.MovImm64(isa.RCX, 1<<60)
	loop := e.Len()
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(loop) - int64(e.Len()) - 5)
	return stepBlockRun(mode, e.Buf, 0, 1_000_000)
}

// memLoopRun drives 200 sweeps over 16 RW pages at a 64-byte stride, each
// step a store, a dependent load and the loop bookkeeping, through
// StepBlock up to the closing syscall; on the reference engine StepBlock
// is per-instruction dispatch, which is what superblocks remove.
func memLoopRun(mode cpu.ExecMode) (engineRun, error) {
	const pages = 16
	var e isa.Enc
	e.MovImm64(isa.RCX, 200)
	outer := e.Len()
	e.MovImm64(isa.RBX, dataBase)
	e.MovImm64(isa.RSI, pages*mem.PageSize/64)
	inner := e.Len()
	e.Store(isa.RBX, 0, isa.RCX)
	e.Load(isa.RDX, isa.RBX, 0)
	e.AddImm(isa.RBX, 64)
	e.AddImm(isa.RSI, -1)
	e.Jnz(int64(inner) - int64(e.Len()) - 5)
	e.AddImm(isa.RCX, -1)
	e.Jnz(int64(outer) - int64(e.Len()) - 5)
	e.Syscall()
	return stepBlockRun(mode, e.Buf, pages, 1<<40) // runs to the syscall
}

// Where stepBlockRun maps a workload's code and data.
const (
	codeBase = 0x1000
	dataBase = 0x100000
)

// stepBlockRun maps code at codeBase and dataPages RW pages at dataBase,
// then drives a CPU on mode's engine through StepBlock, the way the
// kernel does, until it raises a syscall or has retired limit
// instructions.
func stepBlockRun(mode cpu.ExecMode, code []byte, dataPages uint64, limit uint64) (engineRun, error) {
	as := mem.NewAddressSpace()
	if err := as.MapFixed(codeBase, mem.PageSize, mem.ProtRX); err != nil {
		return engineRun{}, err
	}
	if err := as.WriteForce(codeBase, code); err != nil {
		return engineRun{}, err
	}
	if dataPages > 0 {
		if err := as.MapFixed(dataBase, dataPages*mem.PageSize, mem.ProtRW); err != nil {
			return engineRun{}, err
		}
	}
	c := cpu.NewExec(as, mode)
	c.RIP = codeBase
	start := time.Now()
	for retired := uint64(0); retired < limit; {
		ev, n, _ := c.StepBlock(limit - retired)
		retired += n
		if ev == cpu.EvSyscall {
			break
		}
		if ev != cpu.EvNone {
			return engineRun{}, fmt.Errorf("stopped with event %v (%v)", ev, c.FaultErr)
		}
	}
	return engineRun{c.Cycles, time.Since(start), engineCounters(c)}, nil
}

// guestEngineRun runs the program build makes to exit under a kernel on
// mode's engine; a nonzero exit (MemBench's failed self-check) is an
// error.
func guestEngineRun(build func() (*guest.Program, error)) func(cpu.ExecMode) (engineRun, error) {
	return func(mode cpu.ExecMode) (engineRun, error) {
		prog, err := build()
		if err != nil {
			return engineRun{}, err
		}
		k := kernel.New(kernel.Config{Exec: mode})
		task, err := prog.Spawn(k)
		if err != nil {
			return engineRun{}, err
		}
		start := time.Now()
		if err := k.Run(-1); err != nil {
			return engineRun{}, err
		}
		wall := time.Since(start)
		if task.ExitCode != 0 {
			return engineRun{}, fmt.Errorf("guest exited %d", task.ExitCode)
		}
		return engineRun{task.CPU.Cycles, wall, engineCounters(task.CPU)}, nil
	}
}
