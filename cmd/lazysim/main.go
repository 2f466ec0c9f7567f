// Command lazysim is the command-line surface of the simulator: it
// regenerates every table and figure of the paper's evaluation, runs the
// policy, fleet and CPU benches, runs single guests, assembles programs
// and reads traces.
//
// Usage:
//
//	lazysim <command> [flags] [args]
//
// Run `lazysim` alone for the list of commands and `lazysim <command> -h`
// for a command's flags. Each command accepts only the flags it reads;
// any other flag is an error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"lazypoline/internal/benchfmt"
	"lazypoline/internal/experiments"
	"lazypoline/internal/guest"
	"lazypoline/internal/telemetry"
)

// command is one subcommand: it parses its own flags from args and
// writes its report to w.
type command struct {
	name, summary string
	run           func(args []string, w io.Writer) error
}

func commands() []command {
	return []command{
		{"figure5", "Figure 5: web-server throughput under every mechanism", figure5Cmd},
		{"table2", "Table II: cycles per interposed syscall (-breakdown adds Figure 4)", table2Cmd},
		{"exhaustive", "§V-A: a JIT guest traced under SUD, zpoline and lazypoline (-matrix adds Table I)", exhaustiveCmd},
		{"table3", "Table III: coreutils expecting xstate preservation across syscalls", table3Cmd},
		{"policy", "syscall-policy layers' overhead in Table II and Figure 5 terms", policyCmd},
		{"fleet", "fleet robustness drills behind a simulated balancer", fleetCmd},
		{"cpu", "fast vs reference execution engine throughput", cpuCmd},
		{"run", "run one guest under a mechanism and print an strace-style log", runCmd},
		{"asm", "assemble or disassemble a program for the simulated ISA", asmCmd},
		{"trace", "pretty-print or convert a telemetry trace", traceCmd},
		{"snapshots", "regenerate every BENCH_*.json snapshot and figure5_output.txt", snapshotsCmd},
	}
}

func main() {
	if len(os.Args) > 1 {
		for _, c := range commands() {
			if c.name != os.Args[1] {
				continue
			}
			// The one error exit: every subcommand returns its failure here.
			if err := c.run(os.Args[2:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
				fmt.Fprintf(os.Stderr, "lazysim %s: %v\n", c.name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "usage: lazysim <command> [flags] [args]\n\ncommands:")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.summary)
	}
	os.Exit(2)
}

// flags is one subcommand's flag set. The methods declare the flags that
// several subcommands share, each with the same name and meaning
// everywhere; a subcommand declares only those it reads.
type flags struct{ *flag.FlagSet }

func newFlags(name string) flags {
	return flags{flag.NewFlagSet("lazysim "+name, flag.ContinueOnError)}
}

// parse parses args and rejects more than maxArgs positional arguments.
func (f flags) parse(args []string, maxArgs int) error {
	if err := f.Parse(args); err != nil {
		return err
	}
	if f.NArg() > maxArgs {
		return fmt.Errorf("unexpected argument %q", f.Arg(maxArgs))
	}
	return nil
}

func (f flags) parallel(p *int) {
	f.IntVar(p, "j", experiments.DefaultParallelism(), "sweep cells measured concurrently")
}

func (f flags) out(p *string, def string) {
	f.StringVar(p, "out", def, "machine-readable result file (empty disables)")
}

func (f flags) chaos(seed *uint64, rate *float64) {
	f.Uint64Var(seed, "chaos-seed", *seed, "deterministic fault-injection seed (see internal/chaos)")
	f.Float64Var(rate, "chaos-rate", *rate, "fault-injection rate in [0,1]; 0 disables chaos entirely")
}

func (f flags) requests(p *int) { f.IntVar(p, "requests", *p, "requests per cell") }

func (f flags) conns(p *int) { f.IntVar(p, "conns", *p, "keep-alive client connections") }

func (f flags) iters(p *int64) { f.Int64Var(p, "iters", *p, "microbenchmark loop iterations") }

func (f flags) sizes(p *[]int) { f.Var(intList(p), "sizes", "file sizes in bytes") }

func (f flags) servers(p *[]guest.ServerStyle) {
	f.Var(listFlag[guest.ServerStyle]{p, parseServer, guest.ServerStyle.String}, "servers", "server styles (nginx, lighttpd)")
}

func (f flags) mechs(p *[]string) {
	f.Var(listFlag[string]{p, func(s string) (string, error) { return s, nil }, func(s string) string { return s }},
		"mechs", "mechanisms to measure")
}

func (f flags) traceOut(p *string) {
	f.StringVar(p, "trace-out", "", "write a trace to this file (.jsonl = compact lines, else Chrome/Perfetto JSON)")
}

// telemetry declares -metrics-out, -trace-out and -profile-out.
func (f flags) telemetry(o *outputs) {
	f.StringVar(&o.metrics, "metrics-out", "", "write telemetry metrics to this file")
	f.traceOut(&o.trace)
	f.StringVar(&o.profile, "profile-out", "", "write folded flamegraph stacks of the virtual-cycle profile to this file")
}

// listFlag is a comma-separated list flag over *p; Set replaces the
// whole list and skips empty fields.
type listFlag[T any] struct {
	p     *[]T
	parse func(string) (T, error)
	str   func(T) string
}

func intList(p *[]int) listFlag[int] {
	return listFlag[int]{p, func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("bad integer %q", s)
		}
		return n, nil
	}, strconv.Itoa}
}

func (l listFlag[T]) String() string {
	if l.p == nil {
		return ""
	}
	parts := make([]string, len(*l.p))
	for i, v := range *l.p {
		parts[i] = l.str(v)
	}
	return strings.Join(parts, ",")
}

func (l listFlag[T]) Set(s string) error {
	var out []T
	for _, field := range strings.Split(s, ",") {
		if field = strings.TrimSpace(field); field == "" {
			continue
		}
		v, err := l.parse(field)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	*l.p = out
	return nil
}

func parseServer(s string) (guest.ServerStyle, error) {
	switch s {
	case "nginx":
		return guest.StyleNginx, nil
	case "lighttpd":
		return guest.StyleLighttpd, nil
	}
	return 0, fmt.Errorf("unknown server style %q", s)
}

// writeSnapshot writes a BENCH_*.json file; an empty path writes nothing.
func writeSnapshot(w io.Writer, path, name string, parallelism int, wall time.Duration, cfg, results any) error {
	if path == "" {
		return nil
	}
	err := benchfmt.Write(path, benchfmt.File{
		Name:        name,
		Parallelism: parallelism,
		WallSeconds: wall.Seconds(),
		Config:      cfg,
		Results:     results,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// outputs are the telemetry files a run writes; an empty path leaves that
// surface off.
type outputs struct{ metrics, trace, profile string }

// sink returns a telemetry sink recording the surfaces o names, or nil.
func (o outputs) sink() *telemetry.Sink {
	if o == (outputs{}) {
		return nil
	}
	s := &telemetry.Sink{}
	if o.metrics != "" {
		s.Metrics = telemetry.NewRegistry()
	}
	if o.trace != "" {
		s.Timeline = telemetry.NewTimeline()
	}
	if o.profile != "" {
		s.Profiler = telemetry.NewProfiler()
	}
	return s
}

// write writes the files o names from s: the metrics snapshot, the
// timeline followed by extra (a request tracer's export), and the profile
// folded against symbols.
func (o outputs) write(w io.Writer, s *telemetry.Sink, extra []telemetry.Event, symbols map[string]uint64) error {
	if o.metrics != "" {
		err := create(w, o.metrics, func(f io.Writer) error {
			data, err := s.Metrics.Snapshot().MarshalIndent()
			if err == nil {
				_, err = f.Write(data)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if o.trace != "" {
		if err := writeEvents(w, o.trace, append(s.Timeline.Events(), extra...)); err != nil {
			return err
		}
	}
	if o.profile != "" {
		return create(w, o.profile, func(f io.Writer) error { return s.Profiler.WriteFolded(f, symbols) })
	}
	return nil
}

// writeEvents writes a trace: compact JSONL for a .jsonl path, the
// Chrome/Perfetto envelope otherwise.
func writeEvents(w io.Writer, path string, evs []telemetry.Event) error {
	return create(w, path, func(f io.Writer) error {
		if strings.HasSuffix(path, ".jsonl") {
			return telemetry.EncodeJSONL(f, evs)
		}
		return telemetry.EncodeChrome(f, evs)
	})
}

// create writes path through fill and reports it on w.
func create(w io.Writer, path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
