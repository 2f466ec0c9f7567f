package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel sweep engine.
//
// Every experiment in this package is a grid of independent cells: one
// (mechanism) microbenchmark run, one (server × workers × file-size ×
// mechanism) macrobenchmark run, one traced JIT execution. Each cell
// constructs its own kernel.Kernel, guest image and CostModel copy, so
// cells share no mutable state — the simulator equivalent of the paper
// pinning server and client to disjoint cores. runSweep exploits that:
// it executes cells on a bounded worker pool while the caller assembles
// results in deterministic plot order, so parallel output is
// byte-identical to a serial run.

// DefaultParallelism is the worker-pool width used when a config or -j
// flag leaves parallelism at zero.
func DefaultParallelism() int { return runtime.NumCPU() }

// runSweep executes run(i) for every i in [0,n) on a pool of
// `parallelism` goroutines (<=0 selects DefaultParallelism). Every cell
// runs exactly once regardless of failures elsewhere, and the error of
// the lowest-indexed failing cell is returned — so both the success and
// the failure outcome are independent of goroutine interleaving.
func runSweep(n, parallelism int, run func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = DefaultParallelism()
	}
	if parallelism > n {
		parallelism = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = run(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
