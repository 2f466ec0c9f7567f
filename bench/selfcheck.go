package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the self-check and the
// tests read.
type benchmarkFile struct {
	EndToEnd  []benchmarkMetric `json:"end_to_end"`
	PerLayer  []benchmarkMetric `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end_to_end only
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(b, &bf)
	return bf, err
}

// selfCheck runs every selected workload twice, set after set as the
// driver does, and prints by how much the second set is worse than the
// first on each end-to-end metric, beside the metric's bound. It fails
// when any exceeds its bound: the bounds in BENCHMARK.json must be ones
// that two runs of the same code keep.
func selfCheck(selected []workload, o options) error {
	o.trace, o.e2e, o.traced = "0", true, false
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("self-check runs from the repository root: %w", err)
	}
	var sets [2]map[string]map[string]float64
	for i := range sets {
		sets[i] = make(map[string]map[string]float64)
		for _, w := range selected {
			rep, err := runIsolated(w, o, io.Discard)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: %d of %d units failed, cells %v differ from their reference", w.name, rep.Failed, rep.Attempted, rep.Mismatched)
			}
			sets[i][w.name] = rep.Metrics
			fmt.Printf("set %d %-15s done\n", i+1, w.name)
		}
	}
	fmt.Printf("\n%-15s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	exceeded := 0
	for _, w := range selected {
		for _, d := range bf.EndToEnd {
			a, b := sets[0][w.name][d.Name], sets[1][w.name][d.Name]
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			flag := ""
			if worse > d.Bound {
				flag = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-15s %-20s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", w.name, d.Name, a, b, 100*worse, 100*d.Bound, flag)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}
