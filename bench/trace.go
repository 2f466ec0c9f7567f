package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer was created; Parent is the index of the enclosing
// span (-1 for a root) and Cell the index of the workload cell that was
// running, so all spans of one cell share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
}

// tracer records spans in memory. The load is driven from one goroutine,
// so the open spans form a stack and the top of it is the parent of the
// next span. Every method is a no-op on a nil tracer: cell code is
// written once and runs untraced with tracer == nil.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	cell  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Cell: t.cell})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// layerTime is the time attributed to one span name.
type layerTime struct {
	// Total is the summed duration of the name's spans and Self the
	// part of it not covered by their child spans.
	Total, Self time.Duration
	Count       int
}

// layerTimes sums spans by name. A layer's self time is its spans'
// duration minus the part their children cover.
func layerTimes(spans []span) map[string]layerTime {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - children[i])
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// writeTrace writes spans as one JSON array, one span per element, each
// span's position in the array being the id its children name as parent.
func writeTrace(path string, cells []string, spans []span) error {
	doc := struct {
		Cells []string `json:"cells"`
		Spans []span   `json:"spans"`
	}{cells, spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
