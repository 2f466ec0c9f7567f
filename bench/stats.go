package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// highPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and which percentile that is. With fewer
// than twenty samples no percentile qualifies and it returns the
// maximum, reported as percentile 100.
func highPercentile(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 100
	}
	if n < 20 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// passEstimate is the benchmark's host-time estimate of one pass: the
// sum over cells of the mean of each cell's fastest quarter of runs (at
// least two). Other tenants of the host only ever add time, in bursts
// that rarely hit the same cell on every pass, so a cell's fast runs
// are its least disturbed ones; averaging a few of them, not taking the
// single fastest, keeps one lucky run (a turbo burst: a fixed spin loop
// here now and then runs 25 % faster than ever again) from setting the
// number. README.md has the measured spreads of this and the
// alternatives.
func passEstimate(passes [][]time.Duration) (total time.Duration, perCell []time.Duration) {
	if len(passes) == 0 {
		return 0, nil
	}
	keep := max(2, (len(passes)+3)/4)
	keep = min(keep, len(passes))
	perCell = make([]time.Duration, len(passes[0]))
	runs := make([]time.Duration, len(passes))
	for i := range perCell {
		for p := range passes {
			runs[p] = passes[p][i]
		}
		sort.Slice(runs, func(a, b int) bool { return runs[a] < runs[b] })
		var sum time.Duration
		for _, d := range runs[:keep] {
			sum += d
		}
		perCell[i] = sum / time.Duration(keep)
		total += perCell[i]
	}
	return total, perCell
}

func passTotals(passes [][]time.Duration) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		var sum time.Duration
		for _, d := range p {
			sum += d
		}
		out[i] = ms(sum)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
