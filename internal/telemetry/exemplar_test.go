package telemetry

import (
	"fmt"
	"math/bits"
	"testing"
)

func TestHistogramExemplarAttach(t *testing.T) {
	var h Histogram
	if h.ObserveEx(100, 0) {
		t.Error("zero trace must never become an exemplar")
	}
	if !h.ObserveEx(100, 0xaa00) {
		t.Error("first traced observation must win its bucket")
	}
	if h.ObserveEx(70, 0xbb00) { // same bucket [64,127], smaller value
		t.Error("smaller value displaced the exemplar")
	}
	if !h.ObserveEx(120, 0xcc00) { // same bucket, larger value
		t.Error("larger value must replace the exemplar")
	}
	val, trace, ok := h.Exemplar(bits.Len64(uint64(100)))
	if !ok || val != 120 || trace != 0xcc00 {
		t.Errorf("bucket exemplar = (%d, %#x, %v), want (120, 0xcc00, true)", val, trace, ok)
	}

	// A different bucket keeps its own exemplar.
	h.ObserveEx(5000, 0xdd00)
	exs := h.Exemplars()
	if len(exs) != 2 {
		t.Fatalf("Exemplars() = %+v, want 2 buckets", exs)
	}
	if exs[0].Value != 120 || exs[0].Trace != "000000000000cc00" {
		t.Errorf("bucket 0 exemplar: %+v", exs[0])
	}
	if exs[0].Count != 4 { // 100, 70, 120 share the bucket... plus the traceless 100
		t.Errorf("bucket population %d, want 4", exs[0].Count)
	}
	if exs[1].Value != 5000 || exs[1].Trace != "000000000000dd00" {
		t.Errorf("bucket 1 exemplar: %+v", exs[1])
	}
	if exs[0].Lo > 100 || exs[0].Hi < 100 {
		t.Errorf("bucket range [%d,%d] excludes its observation", exs[0].Lo, exs[0].Hi)
	}
}

// TestHistogramExemplarSnapshot: the registry snapshot carries exemplars
// on the buckets that have them and omits the fields elsewhere.
func TestHistogramExemplarSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(3)
	h.ObserveEx(100, 0xabcd00)
	snap := r.Snapshot()
	hs := snap.Histograms["lat"]
	var withEx, without int
	for _, b := range hs.Buckets {
		if b.Exemplar != "" {
			withEx++
			if b.Exemplar != "0000000000abcd00" || b.ExemplarValue != 100 {
				t.Errorf("snapshot exemplar: %+v", b)
			}
		} else {
			without++
		}
	}
	if withEx != 1 || without != 1 {
		t.Errorf("snapshot buckets: %d with exemplar, %d without", withEx, without)
	}
}

// TestHistogramExemplarInterleaved: eight writers' ObserveEx calls,
// interleaved one observation at a time, lose no count, and every bucket
// keeps the trace of its largest value, the last writer winning a tie.
func TestHistogramExemplarInterleaved(t *testing.T) {
	var h Histogram
	const writers = 8
	for i := 1; i <= 1000; i++ {
		for w := 0; w < writers; w++ {
			h.ObserveEx(uint64(i), uint64(w*1000+i)<<8)
		}
	}
	if h.Count() != writers*1000 {
		t.Errorf("count = %d, want %d", h.Count(), writers*1000)
	}
	for _, e := range h.Exemplars() {
		top := min(e.Hi, 1000)
		if want := fmt.Sprintf("%016x", uint64((writers-1)*1000+int(top))<<8); e.Value != top || e.Trace != want {
			t.Errorf("bucket [%d,%d]: exemplar %d/%s, want %d/%s", e.Lo, e.Hi, e.Value, e.Trace, top, want)
		}
	}
}
