package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"lazypoline/internal/experiments"
	"lazypoline/internal/kernel"
	"lazypoline/internal/pin"
)

// table2Cmd regenerates the paper's Table II — the cycle cost of
// interposing a non-existent syscall (number 500) under every mechanism —
// and, with -breakdown, Figure 4: lazypoline's overhead split into
// rewriting, SUD-enablement and xstate preservation.
func table2Cmd(args []string, w io.Writer) error {
	iters := int64(100_000)
	var breakdown bool
	var parallel int
	var out string
	f := newFlags("table2")
	f.iters(&iters)
	f.BoolVar(&breakdown, "breakdown", false, "also print the Figure 4 overhead breakdown")
	f.parallel(&parallel)
	f.out(&out, "BENCH_table2.json")
	if err := f.parse(args, 0); err != nil {
		return err
	}

	fmt.Fprintf(w, "Table II — microbenchmark: syscall %s x%d (paper: Xeon Gold 5318S @ 2.10 GHz)\n\n",
		"500 (non-existent)", iters)
	begin := time.Now()
	rows, err := experiments.Table2(iters, parallel)
	if err != nil {
		return err
	}
	wall := time.Since(begin)
	paper := map[string]string{
		experiments.MechZpoline:      "(n/a)",
		experiments.MechLazypolineNX: "1.66x",
		experiments.MechLazypoline:   "2.38x",
		experiments.MechSUD:          "20.8x",
		experiments.MechBaselineSUD:  "1.42x",
		experiments.MechBaseline:     "1.00x",
	}
	fmt.Fprintf(w, "  %-24s %12s %10s %10s\n", "configuration", "cycles/call", "measured", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %12.1f %9.2fx %10s\n", r.Mechanism, r.CyclesPerCall, r.Overhead, paper[r.Mechanism])
	}
	fmt.Fprintln(w)

	type config struct {
		Iters      int64    `json:"iters"`
		Mechanisms []string `json:"mechanisms"`
	}
	cfg := config{Iters: iters, Mechanisms: experiments.Table2Mechanisms}
	if err := writeSnapshot(w, out, "table2", parallel, wall, cfg, rows); err != nil {
		return err
	}

	if !breakdown {
		return nil
	}
	fmt.Fprintf(w, "\nFigure 4 — lazypoline overhead breakdown (cycles/call over baseline)\n\n")
	f4, err := experiments.Figure4(iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-28s %10.1f\n", "baseline", f4.BaselineCycles)
	fmt.Fprintf(w, "  %-28s %10.1f  (+%.1f rewriting/trampoline)\n", "zpoline (pure rewriting)", f4.ZpolineCycles, f4.RewritingOver)
	fmt.Fprintf(w, "  %-28s %10.1f  (+%.1f enabling SUD)\n", "lazypoline w/o xstate", f4.NoXStateCycles, f4.EnablingSUDOver)
	fmt.Fprintf(w, "  %-28s %10.1f  (+%.1f xstate preservation)\n", "lazypoline", f4.FullCycles, f4.XStateOver)
	fmt.Fprintf(w, "\n  verification: fast path with SUD disabled = %.1f cycles/call (zpoline: %.1f)\n",
		f4.FastPathNoSUD, f4.ZpolineCycles)

	// §VI ablation: MPK-protected selector.
	mpk, err := experiments.Table2Single(experiments.MechLazypolineMPK, iters)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  ablation: lazypoline + MPK selector protection = %.1f cycles/call (+%.1f)\n",
		mpk, mpk-f4.FullCycles)
	return nil
}

// exhaustiveCmd regenerates the paper's §V-A exhaustiveness evaluation: a
// tcc-like JIT guest compiles a program containing a singular, non-libc
// getpid at run time, and the same workload is traced under SUD, zpoline
// and lazypoline. With -matrix it also prints the empirically derived
// Table I characteristics matrix.
func exhaustiveCmd(args []string, w io.Writer) error {
	var matrix bool
	var parallel int
	var out string
	f := newFlags("exhaustive")
	f.BoolVar(&matrix, "matrix", false, "also print the Table I characteristics matrix")
	f.parallel(&parallel)
	f.out(&out, "BENCH_exhaustive.json")
	if err := f.parse(args, 0); err != nil {
		return err
	}

	fmt.Fprintln(w, "§V-A exhaustiveness — JIT (tcc -run analogue) traced under each mechanism")
	fmt.Fprintln(w)
	begin := time.Now()
	results, err := experiments.Exhaustiveness(parallel)
	if err != nil {
		return err
	}
	wall := time.Since(begin)
	for _, r := range results {
		names := make([]string, len(r.Trace))
		for i, nr := range r.Trace {
			names[i] = kernel.SyscallName(nr)
		}
		fmt.Fprintf(w, "%s trace (%d syscalls):\n  %s\n", r.Mechanism, len(r.Trace), strings.Join(names, ", "))
		fmt.Fprintf(w, "  JIT-generated getpid interposed: %v", r.SawJITGetpid)
		if r.MatchesGroundTruth {
			fmt.Fprintf(w, " — trace complete (matches kernel ground truth)\n\n")
		} else {
			fmt.Fprintf(w, " — INCOMPLETE: %s\n\n", r.Diff)
		}
	}
	fmt.Fprintln(w, "Expected: SUD and lazypoline print the exact same syscalls (incl. getpid);")
	fmt.Fprintln(w, "zpoline's trace does not include it — the instruction did not exist at scan time.")

	if err := writeSnapshot(w, out, "exhaustive", parallel, wall, struct{}{}, results); err != nil {
		return err
	}

	if !matrix {
		return nil
	}
	fmt.Fprintln(w, "\nTable I — characteristics (measured)")
	rows, err := experiments.Table1(10_000, parallel)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n  %-14s %-14s %-14s %-10s %10s\n", "mechanism", "expressive", "exhaustive", "efficiency", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %-14s %-14s %-10s %9.1fx\n",
			r.Mechanism, pick(r.Expressive, "Full", "Limited"), pick(r.Exhaustive, "yes", "NO"), r.Efficiency, r.Overhead)
	}
	return nil
}

// table3Cmd regenerates the paper's Table III: the Pin-like dynamic
// analysis run over ten coreutils on two libc variants, reporting which
// programs expect extended state (SSE/x87) to be preserved across at
// least one syscall.
func table3Cmd(args []string, w io.Writer) error {
	var verbose bool
	f := newFlags("table3")
	f.BoolVar(&verbose, "v", false, "print each violation (register, sites, crossed syscalls)")
	if err := f.parse(args, 0); err != nil {
		return err
	}
	rows, err := pin.Table3()
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Table III — coreutils expecting xstate preservation across syscalls")
	fmt.Fprintln(w, "(✓ = at least one write→syscall→read pattern on an extended-state register)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-10s %-22s %-22s\n", "coreutil", "Ubuntu 20.04 (2.31)", "Clear Linux (2.39)")
	affected := 0
	for _, row := range rows {
		fmt.Fprintf(w, "  %-10s %-22s %-22s\n", row.Util, pick(row.UbuntuAffected, "✓", "✗"), pick(row.ClearAffected, "✓", "✗"))
		if row.UbuntuAffected {
			affected++
		}
		if verbose {
			for _, v := range row.UbuntuReport.Violations {
				fmt.Fprintf(w, "      ubuntu: %s\n", v)
			}
			for _, v := range row.ClearReport.Violations {
				fmt.Fprintf(w, "      clear:  %s\n", v)
			}
		}
	}
	fmt.Fprintf(w, "\n%d/%d affected on Ubuntu 20.04 (paper: 40%%, via the Listing 1 pthread init);\n",
		affected, len(rows))
	fmt.Fprintln(w, "all affected on Clear Linux (paper: ptmalloc_init expects getrandom to preserve xmm).")
	return nil
}

func pick(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}
