package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Event is one timeline record in Chrome trace-event form. Timestamps
// and durations are virtual cycles (the simulator has no wall clock);
// Perfetto happily displays them as microseconds, which makes 1 display
// "µs" == 1 simulated cycle.
//
// Phases used by the simulator: "X" (complete slice with duration),
// "B"/"E" (begin/end of a nested slice, e.g. a signal frame that spans
// scheduler quanta), "i" (instant), and "M" (metadata: lane and process
// names).
type Event struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// Process/lane IDs used by the kernel's timeline wiring. Guest activity
// (syscall frames, signal frames, rewrite windows) lives in the machine
// process with one lane per task; scheduler quanta get their own
// process so quantum slices never improperly nest with signal frames
// that span a quantum boundary.
const (
	PIDMachine   = 1
	PIDScheduler = 2
)

// Timeline accumulates events. Emission is an append; all ordering work
// happens at export.
type Timeline struct {
	events []Event
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Emit appends one event.
func (tl *Timeline) Emit(ev Event) {
	tl.events = append(tl.events, ev)
}

// Span emits a complete ("X") slice.
func (tl *Timeline) Span(pid, tid int, name, cat string, ts, dur uint64) {
	tl.Emit(Event{Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: pid, TID: tid})
}

// Begin emits the start of a nested ("B") slice.
func (tl *Timeline) Begin(pid, tid int, name, cat string, ts uint64) {
	tl.Emit(Event{Name: name, Cat: cat, Ph: "B", TS: ts, PID: pid, TID: tid})
}

// End closes the most recent Begin on the same lane.
func (tl *Timeline) End(pid, tid int, name, cat string, ts uint64) {
	tl.Emit(Event{Name: name, Cat: cat, Ph: "E", TS: ts, PID: pid, TID: tid})
}

// SetLane names a (pid, tid) lane via a thread_name metadata event.
func (tl *Timeline) SetLane(pid, tid int, name string) {
	tl.Emit(Event{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]string{"name": name}})
}

// SetProcess names a pid via a process_name metadata event.
func (tl *Timeline) SetProcess(pid int, name string) {
	tl.Emit(Event{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]string{"name": name}})
}

// Events returns the accumulated events in export order: metadata
// first, then slices grouped by (pid, tid) and stable-sorted by
// timestamp. "X" slices are recorded at completion carrying their start
// timestamp, so raw emission order is not time order; the sort restores
// per-lane monotonicity, which Perfetto requires and the schema test
// asserts.
func (tl *Timeline) Events() []Event {
	evs := append([]Event{}, tl.events...)
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		am, bm := a.Ph == "M", b.Ph == "M"
		if am != bm {
			return am
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.TS < b.TS
	})
	return evs
}

// Len returns the number of emitted events.
func (tl *Timeline) Len() int { return len(tl.events) }

// ChromeTrace is the top-level object of a Chrome trace-event file.
type ChromeTrace struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
}

// EncodeChrome writes events as a Chrome trace-event JSON object, one
// event per line so the file diffs cleanly.
func EncodeChrome(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// EncodeJSONL writes events in the compact JSONL form: one JSON event
// object per line, no wrapper.
func EncodeJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range evs {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeTrace reads either export format (Chrome trace-event JSON or
// JSONL). A JSONL file holds one event object per line, so its first
// non-blank line is a whole JSON value without a traceEvents key;
// anything else is a Chrome trace, whatever order its keys come in.
func DecodeTrace(data []byte) ([]Event, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, nil
	}
	first, _, _ := bytes.Cut(trimmed, []byte{'\n'})
	var probe struct {
		TraceEvents json.RawMessage `json:"traceEvents"`
	}
	if json.Unmarshal(first, &probe) != nil || probe.TraceEvents != nil {
		var ct ChromeTrace
		if err := json.Unmarshal(trimmed, &ct); err != nil {
			return nil, fmt.Errorf("telemetry: decode chrome trace: %w", err)
		}
		return ct.TraceEvents, nil
	}
	var evs []Event
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("telemetry: decode jsonl line %d: %w", i+1, err)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}
