package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/contract.sum from this tree's outputs")

const contractSum = "testdata/contract.sum"

// TestSimulatedResultContract pins every simulated result the repository
// publishes, so a change behind them (a lock, a buffer, a data structure)
// is proven not to move one: every snapshotTable entry regenerated at
// full size must match the checked-in BENCH_*.json in config and results
// and figure5_output.txt in every line but its timing and file lines;
// the same-seed fleet request traces (four drills x two mechanisms), the
// table3 report and the table2 -breakdown report must match the SHA-256
// digests in testdata/contract.sum. Only wall time, sweep width and host
// fields may differ. `go test ./cmd/lazysim -run Contract -update`
// rewrites contract.sum after a change that is meant to move a result
// (the snapshots are refreshed with `make snapshots`).
//
// Under -short or -race only the fleet traces and the table3 report are
// checked: the race detector stretches the full-size snapshots and the
// 100k-iteration table2 run to minutes.
func TestSimulatedResultContract(t *testing.T) {
	full := !testing.Short() && !raceEnabled
	if full {
		checkSnapshots(t)
	} else {
		t.Log("-short or -race: checking the fleet-trace and table3 digests only, not the snapshots or table2 -breakdown")
	}

	got := contractDigests(t, full)
	if *update {
		if !full {
			t.Fatal("-update needs the full set: run without -short and -race")
		}
		var b strings.Builder
		for _, name := range sortedKeys(got) {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(contractSum, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(contractSum)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		sum, name, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", contractSum, line)
		}
		want[name] = sum
	}
	for _, name := range sortedKeys(got) {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, %s records %q", name, got[name], contractSum, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok && full {
			t.Errorf("%s names %s, which was not produced", contractSum, name)
		}
	}
}

// checkSnapshots regenerates every snapshot at full size and compares it
// with the checked-in file at the repository root.
func checkSnapshots(t *testing.T) {
	dir := t.TempDir()
	if err := snapshotsCmd([]string{"-dir", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, s := range snapshotTable {
		got, want := readSnapshot(t, filepath.Join(dir, s.file)), readSnapshot(t, filepath.Join("..", "..", s.file))
		if !bytes.Equal(got.Results, want.Results) {
			t.Errorf("%s: results differ from the checked-in file", s.file)
		}
		if gc, wc := decodeConfig(t, got.Config), decodeConfig(t, want.Config); !reflect.DeepEqual(gc, wc) {
			t.Errorf("%s: config differs from the checked-in file:\n got %v\nwant %v", s.file, gc, wc)
		}
		if s.report == "" {
			continue
		}
		g, w := reportLines(t, filepath.Join(dir, s.report)), reportLines(t, filepath.Join("..", "..", s.report))
		if g != w {
			t.Errorf("%s differs from the checked-in file", s.report)
		}
	}
}

type snapshotFile struct {
	Config  json.RawMessage `json:"config"`
	Results json.RawMessage `json:"results"`
}

func readSnapshot(t *testing.T, path string) snapshotFile {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f snapshotFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return f
}

// decodeConfig decodes a snapshot's config, dropping the sweep width a
// config may echo: like the header's parallelism it follows the host.
func decodeConfig(t *testing.T, raw json.RawMessage) any {
	t.Helper()
	var c any
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if m, ok := c.(map[string]any); ok {
		delete(m, "Parallelism")
	}
	return c
}

// reportLines reads a printed report without its timing line ("N cells
// in Ts (-j J)") and the "wrote PATH" lines.
func reportLines(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, " cells in ") || strings.HasPrefix(line, "wrote ") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// contractDigests runs the digest-checked outputs and returns the SHA-256
// of each by name; without full it leaves out table2 -breakdown.
func contractDigests(t *testing.T, full bool) map[string]string {
	t.Helper()
	sums := map[string]string{}
	digest := func(name string, b []byte) { sums[name] = fmt.Sprintf("%x", sha256.Sum256(b)) }

	dir := t.TempDir()
	trace := filepath.Join(dir, "fleet.jsonl")
	if err := fleetCmd([]string{"-drills", "kill,slow,drain,rst", "-mechs", "lazypoline,baseline",
		"-out", "", "-trace-out", trace}, io.Discard); err != nil {
		t.Fatal(err)
	}
	traces, err := filepath.Glob(filepath.Join(dir, "fleet_*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 8 {
		t.Fatalf("fleet wrote %d request traces, want 8", len(traces))
	}
	for _, path := range traces {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		digest(filepath.Base(path), b)
	}

	var out bytes.Buffer
	if err := table3Cmd(nil, &out); err != nil {
		t.Fatal(err)
	}
	digest("table3.txt", out.Bytes())
	if !full {
		return sums
	}
	out.Reset()
	if err := table2Cmd([]string{"-breakdown", "-out", ""}, &out); err != nil {
		t.Fatal(err)
	}
	digest("table2_breakdown.txt", out.Bytes())
	return sums
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
