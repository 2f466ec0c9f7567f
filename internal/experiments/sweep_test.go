package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunSweepCoverage: every cell runs exactly once at any pool width.
func TestRunSweepCoverage(t *testing.T) {
	for _, j := range []int{1, 2, 8, 0} {
		const n = 100
		var ran [n]atomic.Int32
		err := runSweep(n, j, func(i int) error {
			ran[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("j=%d: cell %d ran %d times", j, i, got)
			}
		}
	}
}

// TestRunSweepErrorDeterminism: with several failing cells, the error of
// the lowest-indexed one is reported regardless of pool width — the same
// outcome a serial loop produces.
func TestRunSweepErrorDeterminism(t *testing.T) {
	fail := map[int]bool{7: true, 3: true, 42: true}
	for _, j := range []int{1, 8} {
		err := runSweep(64, j, func(i int) error {
			if fail[i] {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("j=%d: err = %v, want cell 3's error", j, err)
		}
	}
}

// TestRunSweepRunsAllDespiteError: a failing cell does not prevent other
// cells from running (errors are collected, not raced on), serial pool
// included.
func TestRunSweepRunsAllDespiteError(t *testing.T) {
	boom := errors.New("boom")
	for _, j := range []int{1, 4} {
		var ran atomic.Int32
		err := runSweep(16, j, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("j=%d: err = %v", j, err)
		}
		if got := ran.Load(); got != 16 {
			t.Errorf("j=%d: ran %d cells, want 16", j, got)
		}
	}
}

func TestRunSweepEmpty(t *testing.T) {
	if err := runSweep(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}
