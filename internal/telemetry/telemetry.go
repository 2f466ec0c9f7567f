// Package telemetry is the simulator's observability layer: a metrics
// registry of counters/gauges/virtual-cycle histograms, a timeline event
// trace exportable as Chrome trace-event JSON (loadable in Perfetto),
// and a deterministic sampling profiler keyed on virtual cycles.
//
// The layer is strictly observational. Nothing in this package charges
// guest cycles, touches guest memory, or perturbs scheduling; a kernel
// built with a Sink must produce byte-identical guest-visible behaviour
// to one built without (the inertness contract, enforced by the
// telemetry variants of TestExecEquivalence in internal/experiments). To
// keep the dependency graph acyclic the package imports only the
// standard library, so cpu/mem/netstack/kernel and every mechanism can
// publish into it.
//
// A registry and its handles belong to one simulated machine and are
// updated from that machine's goroutine only.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Sink bundles the three telemetry surfaces. Any field may be nil to
// disable that surface; a nil *Sink disables the layer entirely (the
// kernel guards every touch with a single nil check).
type Sink struct {
	Metrics  *Registry
	Timeline *Timeline
	Profiler *Profiler
}

// NewSink returns a Sink with all three surfaces enabled.
func NewSink() *Sink {
	return &Sink{
		Metrics:  NewRegistry(),
		Timeline: NewTimeline(),
		Profiler: NewProfiler(),
	}
}

// Registry is a get-or-create namespace of metrics.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Set overwrites the counter. Collectors use it to publish values that
// are accumulated elsewhere (mechanism stats structs, cpu fields).
func (c *Counter) Set(n uint64) { c.v = n }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous int64 metric.
type Gauge struct{ v int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) { g.v = n }

// SetMax raises the gauge to n if n is larger (high-water tracking).
func (g *Gauge) SetMax(n int64) { g.v = max(g.v, n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v }

// histBuckets is the bucket count for power-of-two histograms: bucket 0
// holds the value 0 and bucket i (i ≥ 1) holds values v with
// bits.Len64(v) == i, i.e. the range [2^(i-1), 2^i - 1].
const histBuckets = 65

// Histogram accumulates a distribution of virtual-cycle measurements in
// power-of-two buckets; ObserveEx also keeps an exemplar per bucket.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64 // stores ^value so zero-init means "unset"
	max     uint64
	buckets [histBuckets]uint64

	exemplars [histBuckets]histExemplar
}

// histExemplar pairs a bucket's largest observed value with the trace
// ID that produced it.
type histExemplar struct {
	val   uint64
	trace uint64
	set   bool
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	h.buckets[bits.Len64(v)]++
	h.min = max(h.min, ^v) // min, stored inverted so the zero value acts as +inf
	h.max = max(h.max, v)
}

// ObserveEx records one value and attaches a trace-ID exemplar to its
// bucket: each bucket keeps the trace of its largest observation
// (running maximum, later ties win), so any percentile read off the
// histogram is one lookup away from a concrete span tree. Returns
// whether this observation became (or replaced) its bucket's exemplar.
// A zero trace records the value without competing for the exemplar.
func (h *Histogram) ObserveEx(v, trace uint64) bool {
	h.Observe(v)
	if trace == 0 {
		return false
	}
	e := &h.exemplars[bits.Len64(v)]
	if !e.set || v >= e.val {
		e.val, e.trace, e.set = v, trace, true
		return true
	}
	return false
}

// Exemplar returns bucket i's exemplar, if one was attached.
func (h *Histogram) Exemplar(i int) (val, trace uint64, ok bool) {
	e := h.exemplars[i]
	return e.val, e.trace, e.set
}

// BucketExemplar is one bucket's exemplar in export form: the bucket's
// range and population, plus the retained observation and its trace ID
// in the same zero-padded hex the trace files use.
type BucketExemplar struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
	Value uint64 `json:"value"`
	Trace string `json:"trace"`
}

// Exemplars returns every bucket that has an exemplar, in bucket order.
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := range h.exemplars {
		e := h.exemplars[i]
		if !e.set {
			continue
		}
		lo, hi := BucketRange(i)
		out = append(out, BucketExemplar{
			Lo: lo, Hi: hi, Count: h.buckets[i],
			Value: e.val, Trace: fmt.Sprintf("%016x", e.trace),
		})
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// BucketRange returns the [lo, hi] value range of bucket i.
func BucketRange(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i == 64 {
		return lo, math.MaxUint64
	}
	return lo, uint64(1)<<i - 1
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddCollector registers a function run (in registration order) at
// every Snapshot. Substrates whose counters live in their own structs —
// mechanism Stats, cpu fields, netstack stats — publish through
// collectors instead of updating registry handles inline.
func (r *Registry) AddCollector(fn func(*Registry)) {
	r.collectors = append(r.collectors, fn)
}

// HistBucket is one non-empty histogram bucket in a snapshot. Exemplar
// fields are present only when ObserveEx attached one.
type HistBucket struct {
	Lo            uint64 `json:"lo"`
	Hi            uint64 `json:"hi"`
	Count         uint64 `json:"count"`
	Exemplar      string `json:"exemplar,omitempty"`
	ExemplarValue uint64 `json:"exemplar_value,omitempty"`
}

// HistSnapshot is the exported state of one histogram.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time, JSON-serialisable view of a registry.
// encoding/json emits map keys sorted, so marshalling a snapshot is
// deterministic.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot runs all collectors, then captures every metric.
func (r *Registry) Snapshot() Snapshot {
	for _, fn := range r.collectors {
		fn(r)
	}

	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{Count: h.count, Sum: h.sum, Max: h.max}
		if hs.Count > 0 {
			hs.Min = ^h.min
		}
		for i, n := range h.buckets {
			if n > 0 {
				lo, hi := BucketRange(i)
				b := HistBucket{Lo: lo, Hi: hi, Count: n}
				if e := h.exemplars[i]; e.set {
					b.Exemplar = fmt.Sprintf("%016x", e.trace)
					b.ExemplarValue = e.val
				}
				hs.Buckets = append(hs.Buckets, b)
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// MarshalJSON gives Snapshot a stable, indented form suitable for both
// -metrics-out files and test goldens.
func (s Snapshot) MarshalIndent() ([]byte, error) {
	type alias Snapshot // avoid recursing into this method
	b, err := json.MarshalIndent(alias(s), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CounterNames returns the sorted names of all counters in the
// snapshot, for deterministic iteration.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
