package telemetry

import (
	"encoding/json"
	"math"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := &Histogram{}
	// Bucket index is bits.Len64(v): 0→0, 1→1, 2,3→2, 4..7→3, 2^k→k+1.
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 10, 11}, {(1 << 11) - 1, 11}, {1 << 62, 63}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	for _, c := range cases {
		if h.buckets[c.bucket] == 0 {
			t.Errorf("Observe(%d): bucket %d empty", c.v, c.bucket)
		}
	}
	if got := h.count; got != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", got, len(cases))
	}

	// BucketRange invariants: contiguous, covering, and containing the
	// values that map to them.
	for i := 0; i < histBuckets; i++ {
		lo, hi := BucketRange(i)
		if lo > hi {
			t.Errorf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if i > 0 {
			prevLo, prevHi := BucketRange(i - 1)
			_ = prevLo
			if lo != prevHi+1 {
				t.Errorf("bucket %d not contiguous: lo %d after hi %d", i, lo, prevHi)
			}
		}
	}
	if lo, _ := BucketRange(0); lo != 0 {
		t.Error("bucket 0 must start at 0")
	}
	if _, hi := BucketRange(histBuckets - 1); hi != math.MaxUint64 {
		t.Errorf("last bucket hi = %d", hi)
	}
}

func TestHistogramMinMaxSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{7, 3, 12} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hs := snap.Histograms["lat"]
	if hs.Count != 3 || hs.Sum != 22 || hs.Min != 3 || hs.Max != 12 {
		t.Errorf("snapshot: %+v", hs)
	}
	// Empty histogram: min must not leak the ^0 sentinel.
	r.Histogram("empty")
	hs = r.Snapshot().Histograms["empty"]
	if hs.Min != 0 || hs.Count != 0 {
		t.Errorf("empty histogram: %+v", hs)
	}
}

// TestRegistryInterleavedUpdates: eight writers interleaved one update
// at a time, each looking its handles up again by name, lose no
// increment and keep the gauge's high-water mark.
func TestRegistryInterleavedUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	for i := 0; i < perWorker; i++ {
		for w := 0; w < workers; w++ {
			r.Counter("c").Add(1)
			r.Gauge("g").SetMax(int64(w*perWorker + i))
			r.Histogram("h").Observe(uint64(i))
		}
	}
	snap := r.Snapshot()
	if snap.Counters["c"] != workers*perWorker {
		t.Errorf("counter = %d, want %d", snap.Counters["c"], workers*perWorker)
	}
	if snap.Gauges["g"] != workers*perWorker-1 {
		t.Errorf("gauge high-water = %d", snap.Gauges["g"])
	}
	if h := snap.Histograms["h"]; h.Count != workers*perWorker || h.Min != 0 || h.Max != perWorker-1 {
		t.Errorf("histogram = %d observations in [%d,%d]", h.Count, h.Min, h.Max)
	}
}

func TestCollectorsRunAtSnapshot(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.AddCollector(func(r *Registry) {
		calls++
		r.Counter("published").Set(uint64(10 * calls))
	})
	if got := r.Snapshot().Counters["published"]; got != 10 {
		t.Errorf("first snapshot: %d", got)
	}
	// Set (not Add) semantics: the second snapshot republishes, no drift.
	if got := r.Snapshot().Counters["published"]; got != 20 {
		t.Errorf("second snapshot: %d", got)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("g").Set(-5)
		r.Histogram("h").Observe(9)
		out, err := r.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one, two := build(), build()
	if string(one) != string(two) {
		t.Error("snapshot JSON not deterministic")
	}
	var decoded Snapshot
	if err := json.Unmarshal(one, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if decoded.Counters["a"] != 1 || decoded.Counters["b"] != 2 || decoded.Gauges["g"] != -5 {
		t.Errorf("decoded: %+v", decoded)
	}
	names := decoded.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("CounterNames = %v", names)
	}
}
