package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"lazypoline/internal/otrace"
	"lazypoline/internal/telemetry"
)

// traceCmd pretty-prints and converts the telemetry traces -trace-out
// writes. Both on-disk forms are accepted and sniffed automatically:
// Chrome trace-event JSON (the Perfetto-loadable envelope) and the
// compact JSONL form.
//
//	lazysim trace trace.json               # pretty-print a table
//	lazysim trace -requests trace.json     # request span trees (otrace)
//	lazysim trace -format jsonl trace.json # convert to compact JSONL
//	lazysim trace -format chrome -o trace.json trace.jsonl
//
// A malformed or truncated trace file is a hard error naming the
// offending line, so round-trip checks fail loud.
func traceCmd(args []string, w io.Writer) (err error) {
	var format, outPath string
	var requests bool
	f := newFlags("trace")
	f.StringVar(&format, "format", "pretty", "output format: pretty, chrome, jsonl")
	f.StringVar(&outPath, "o", "", "write output to file instead of stdout")
	f.BoolVar(&requests, "requests", false, "render request span trees (otrace export) instead of the event table")
	if err := f.parse(args, 1); err != nil {
		return err
	}
	if f.NArg() != 1 {
		return fmt.Errorf("usage: lazysim trace [-format pretty|chrome|jsonl] [-requests] [-o file] trace-file")
	}
	path := f.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	evs, err := telemetry.DecodeTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if outPath != "" {
		file, err := os.Create(outPath)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(file)
		defer func() {
			if ferr := bw.Flush(); err == nil {
				err = ferr
			}
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}()
		w = bw
	}
	if requests {
		return requestTrees(w, evs)
	}
	switch format {
	case "chrome":
		return telemetry.EncodeChrome(w, evs)
	case "jsonl":
		return telemetry.EncodeJSONL(w, evs)
	case "pretty":
		return pretty(w, evs)
	}
	return fmt.Errorf("unknown format %q (want pretty, chrome or jsonl)", format)
}

// requestTrees reconstructs the otrace export (process PIDRequests) into
// one block per retained tree. Spans group structurally — root, then
// each attempt's client/LB/kernel spans — rather than interleaving by
// timestamp, because kernel spans run on the task-local cycle clock
// while request spans use global virtual time (DESIGN.md §9).
func requestTrees(w io.Writer, evs []telemetry.Event) error {
	names := map[int]string{} // lane -> thread_name label
	lanes := map[int][]telemetry.Event{}
	var order []int
	for _, ev := range evs {
		if ev.PID != otrace.PIDRequests {
			continue
		}
		if ev.Ph == "M" {
			if ev.Name == "thread_name" && ev.Args != nil {
				names[ev.TID] = ev.Args["name"]
			}
			continue
		}
		if ev.Name == "otrace_stats" {
			printStats(w, ev)
			continue
		}
		if _, seen := lanes[ev.TID]; !seen {
			order = append(order, ev.TID)
		}
		lanes[ev.TID] = append(lanes[ev.TID], ev)
	}
	if len(lanes) == 0 {
		fmt.Fprintln(w, "no request spans (only figure5 and fleet -trace-out files carry them)")
		return nil
	}
	sort.Ints(order)
	for _, lane := range order {
		if lane == 0 {
			fmt.Fprintln(w, "global events")
		} else {
			fmt.Fprintf(w, "%s\n", names[lane])
		}
		printLane(w, lanes[lane])
	}
	return nil
}

// printLane renders one tree's spans: root first, then the remaining
// spans grouped by attempt number (0 = attempt-agnostic), each group in
// timestamp order with kernel syscall spans indented a level deeper.
func printLane(w io.Writer, spans []telemetry.Event) {
	byAttempt := map[int][]telemetry.Event{}
	var attempts []int
	for _, ev := range spans {
		if ev.Cat == otrace.KindRequest {
			note := ""
			if ev.Args != nil && ev.Args["note"] != "" {
				note = " " + ev.Args["note"]
			}
			fmt.Fprintf(w, "  request @%d +%d%s\n", ev.TS, ev.Dur, note)
			continue
		}
		a := 0
		if ev.Args != nil {
			a, _ = strconv.Atoi(ev.Args["attempt"])
		}
		if _, seen := byAttempt[a]; !seen {
			attempts = append(attempts, a)
		}
		byAttempt[a] = append(byAttempt[a], ev)
	}
	sort.Ints(attempts)
	for _, a := range attempts {
		if a > 0 {
			fmt.Fprintf(w, "  attempt %d\n", a)
		}
		group := byAttempt[a]
		sort.SliceStable(group, func(i, j int) bool {
			// Keep client/LB spans (global clock) ahead of kernel
			// spans (task-local clock); order by time within each.
			ki, kj := group[i].Cat == otrace.KindSys, group[j].Cat == otrace.KindSys
			if ki != kj {
				return !ki
			}
			return group[i].TS < group[j].TS
		})
		for _, ev := range group {
			printSpan(w, ev, a > 0)
		}
	}
}

func printSpan(w io.Writer, ev telemetry.Event, nested bool) {
	indent := "  "
	if nested {
		indent = "    "
	}
	if ev.Cat == otrace.KindSys {
		indent += "  "
	}
	line := fmt.Sprintf("%s%s/%s @%d", indent, ev.Cat, ev.Name, ev.TS)
	if ev.Dur > 0 {
		line += fmt.Sprintf(" +%d", ev.Dur)
	}
	if ev.Args != nil {
		if p := ev.Args["path"]; p != "" {
			line += " path=" + p + " ret=" + ev.Args["ret"]
		}
		if l := ev.Args["lane"]; l != "" {
			line += " task=" + l
		}
		if n := ev.Args["note"]; n != "" {
			line += " (" + n + ")"
		}
	}
	fmt.Fprintln(w, line)
}

func printStats(w io.Writer, ev telemetry.Event) {
	keys := make([]string, 0, len(ev.Args))
	for k := range ev.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprint(w, "otrace stats:")
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%s", k, ev.Args[k])
	}
	fmt.Fprintln(w)
}

// pretty prints one line per event: lanes up front, then the timed
// events in the encoder's per-lane order.
func pretty(w io.Writer, evs []telemetry.Event) error {
	lanes := 0
	for _, ev := range evs {
		if ev.Ph == "M" {
			lanes++
		}
	}
	fmt.Fprintf(w, "%d events (%d metadata)\n", len(evs), lanes)
	fmt.Fprintf(w, "%-5s %-5s %-12s %-10s %12s %10s  %s\n",
		"pid", "tid", "ph", "cat", "ts", "dur", "name")
	for _, ev := range evs {
		if ev.Ph == "M" {
			label := ""
			if ev.Args != nil {
				label = ev.Args["name"]
			}
			fmt.Fprintf(w, "%-5d %-5d %-12s %-10s %12s %10s  %s = %s\n",
				ev.PID, ev.TID, "meta", "", "", "", ev.Name, label)
			continue
		}
		dur := ""
		if ev.Ph == "X" {
			dur = fmt.Sprintf("%d", ev.Dur)
		}
		fmt.Fprintf(w, "%-5d %-5d %-12s %-10s %12d %10s  %s\n",
			ev.PID, ev.TID, phName(ev.Ph), ev.Cat, ev.TS, dur, ev.Name)
	}
	return nil
}

func phName(ph string) string {
	switch ph {
	case "B":
		return "begin"
	case "E":
		return "end"
	case "X":
		return "slice"
	case "i":
		return "instant"
	}
	return ph
}
