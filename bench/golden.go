package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// goldenSeed is the seed the golden files were generated with.
const goldenSeed = 42

// goldenDir is where -update-golden writes, relative to the repository
// root; checks read the copies embedded at build time.
const goldenDir = "bench/golden"

//go:embed golden/*.json
var goldenFS embed.FS

// golden is the checked-in digest of every cell of one workload.
type golden struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Cells    []goldenCell `json:"cells"`
}

type goldenCell struct {
	Cell   string `json:"cell"`
	Digest string `json:"digest"`
}

// checkGolden returns the names of the cells whose digest differs from
// the golden file. A missing golden, or one whose cell list is not the
// workload's, is an error: the benchmark never skips the check.
func checkGolden(w workload, ref []result) (mismatched []string, err error) {
	b, err := goldenFS.ReadFile("golden/" + w.name + ".json")
	if err != nil {
		return nil, fmt.Errorf("no golden for workload %s (run -update-golden): %w", w.name, err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", w.name, err)
	}
	if g.Workload != w.name || g.Seed != goldenSeed || len(g.Cells) != len(w.cells) {
		return nil, fmt.Errorf("golden %s is stale: workload %q seed %d with %d cells, want %d cells at seed %d (run -update-golden)",
			w.name, g.Workload, g.Seed, len(g.Cells), len(w.cells), goldenSeed)
	}
	for i, c := range w.cells {
		if g.Cells[i].Cell != c.name {
			return nil, fmt.Errorf("golden %s is stale: cell %d is %q, want %q (run -update-golden)",
				w.name, i, g.Cells[i].Cell, c.name)
		}
		if g.Cells[i].Digest != ref[i].digest {
			mismatched = append(mismatched, c.name)
		}
	}
	return mismatched, nil
}

// updateGolden runs the workload twice at the golden seed and writes its
// digests, refusing when the two runs disagree.
func updateGolden(w workload) error {
	first, err := runPass(w, goldenSeed)
	if err != nil {
		return err
	}
	second, err := runPass(w, goldenSeed)
	if err != nil {
		return err
	}
	g := golden{Workload: w.name, Seed: goldenSeed}
	for i, c := range w.cells {
		if first[i].digest != second[i].digest {
			return fmt.Errorf("%s cell %s is not deterministic:\n  %s\n  %s", w.name, c.name, first[i].digest, second[i].digest)
		}
		g.Cells = append(g.Cells, goldenCell{c.name, first[i].digest})
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, w.name+".json"), append(b, '\n'), 0o644)
}
