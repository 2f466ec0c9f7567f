package main

import (
	"fmt"
	"io"
	"path/filepath"
)

// snapshot is one checked-in benchmark snapshot: the subcommand that
// writes it, its file, the file its printed report goes to ("" =
// stdout), and the flags of a small CI-sized run. The full configuration
// is the subcommand's flag defaults.
type snapshot struct {
	name   string
	run    func(args []string, w io.Writer) error
	file   string
	report string
	smoke  []string
}

var snapshotTable = []snapshot{
	{"figure5", figure5Cmd, "BENCH_figure5.json", "figure5_output.txt",
		[]string{"-requests", "60", "-conns", "8", "-sizes", "1024,65536", "-workers", "1"}},
	{"table2", table2Cmd, "BENCH_table2.json", "", []string{"-iters", "10000"}},
	{"exhaustive", exhaustiveCmd, "BENCH_exhaustive.json", "", nil},
	{"policy", policyCmd, "BENCH_policy.json", "",
		[]string{"-iters", "2000", "-requests", "40", "-conns", "4", "-sizes", "1024", "-mechs", "baseline,lazypoline"}},
	{"fleet", fleetCmd, "BENCH_fleet.json", "",
		[]string{"-requests", "60", "-drills", "none,kill", "-mechs", "baseline,lazypoline"}},
}

// snapshotsCmd runs every snapshot of snapshotTable into -dir: at full
// size it regenerates the checked-in files, and -smoke runs each at its
// CI size.
func snapshotsCmd(args []string, w io.Writer) error {
	var smoke bool
	dir := "."
	f := newFlags("snapshots")
	f.BoolVar(&smoke, "smoke", false, "run every snapshot at its small CI size")
	f.StringVar(&dir, "dir", dir, "directory the snapshot files are written to")
	if err := f.parse(args, 0); err != nil {
		return err
	}
	for _, s := range snapshotTable {
		var args []string
		if smoke {
			args = append(args, s.smoke...)
		}
		args = append(args, "-out", filepath.Join(dir, s.file))
		fmt.Fprintf(w, "== lazysim %s\n", s.name)
		var err error
		if s.report == "" {
			err = s.run(args, w)
		} else {
			err = create(w, filepath.Join(dir, s.report), func(f io.Writer) error { return s.run(args, f) })
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}
