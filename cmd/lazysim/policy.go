package main

import (
	"fmt"
	"io"
	"time"

	"lazypoline/internal/experiments"
)

// policyCmd measures the syscall-policy enforcement layers' overhead
// (DESIGN.md §6): the Table II microbenchmark and a Figure 5 subset, each
// run policy-off and with the privilege-region layer, the SFIP layer, and
// both. SFIP cells learn their transition profile on a first run and
// enforce it on the measured one.
func policyCmd(args []string, w io.Writer) error {
	cfg := experiments.DefaultPolicyBenchConfig()
	var out string
	f := newFlags("policy")
	f.iters(&cfg.MicroIters)
	f.requests(&cfg.Requests)
	f.conns(&cfg.Connections)
	f.sizes(&cfg.FileSizes)
	f.servers(&cfg.Servers)
	f.mechs(&cfg.Mechanisms)
	f.parallel(&cfg.Parallelism)
	f.out(&out, "BENCH_policy.json")
	if err := f.parse(args, 0); err != nil {
		return err
	}

	fmt.Fprintf(w, "Syscall-policy overhead — privilege regions and SFIP\n")
	fmt.Fprintf(w, "(micro: %d iterations; macro: %d requests, %d connections, 1 worker)\n",
		cfg.MicroIters, cfg.Requests, cfg.Connections)

	begin := time.Now()
	res, err := experiments.PolicyBench(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(begin)

	fmt.Fprintf(w, "\nTable II subset — cycles per intercepted syscall\n")
	lastMech := ""
	for _, row := range res.Micro {
		if row.Mechanism != lastMech {
			fmt.Fprintf(w, "\n%s\n", row.Mechanism)
			lastMech = row.Mechanism
		}
		fmt.Fprintf(w, "  %-8s %10.1f cycles/call   %5.2fx\n", row.Policy, row.CyclesPerCall, row.Overhead)
	}
	fmt.Fprintf(w, "\nFigure 5 subset — throughput (relative = vs same cell policy-off)\n")
	lastKey := ""
	for _, row := range res.Macro {
		key := fmt.Sprintf("%s, %dB files, %s", row.Server, row.FileSize, row.Mechanism)
		if key != lastKey {
			fmt.Fprintf(w, "\n%s\n", key)
			lastKey = key
		}
		fmt.Fprintf(w, "  %-8s %12.0f req/s   %6.1f%%\n", row.Policy, row.Throughput, 100*row.Relative)
	}
	fmt.Fprintf(w, "\n%d cells in %.1fs (-j %d)\n", len(res.Micro)+len(res.Macro), wall.Seconds(), cfg.Parallelism)
	return writeSnapshot(w, out, "policy", cfg.Parallelism, wall, cfg, res)
}
