package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

func buildTimeline() *Timeline {
	tl := NewTimeline()
	tl.SetProcess(PIDMachine, "machine")
	tl.SetLane(PIDMachine, 1, "guest/1")
	// Deliberately out of order within the lane: Events() must restore
	// per-lane monotonicity.
	tl.Span(PIDMachine, 1, "write", "direct", 500, 20)
	tl.Span(PIDMachine, 1, "read", "trampoline", 100, 50)
	tl.Begin(PIDMachine, 1, "SIGUSR1", "signal", 700)
	tl.End(PIDMachine, 1, "SIGUSR1", "signal", 900)
	tl.Span(PIDScheduler, 1, "guest/1", "quantum", 0, 1000)
	return tl
}

func TestTimelineEventOrdering(t *testing.T) {
	evs := buildTimeline().Events()
	// Metadata first, then sorted by (pid, tid, ts).
	for i, ev := range evs {
		if ev.Ph != "M" {
			for _, later := range evs[i:] {
				if later.Ph == "M" {
					t.Fatal("metadata event after timed event")
				}
			}
			break
		}
	}
	lastTS := make(map[[2]int]uint64)
	for _, ev := range evs {
		if ev.Ph == "M" {
			continue
		}
		lane := [2]int{ev.PID, ev.TID}
		if ev.TS < lastTS[lane] {
			t.Errorf("lane %v: ts %d after %d", lane, ev.TS, lastTS[lane])
		}
		lastTS[lane] = ev.TS
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeChrome(&buf, buildTimeline().Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	validPh := map[string]bool{"B": true, "E": true, "X": true, "M": true, "i": true}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if !validPh[ph] {
			t.Errorf("event %d: bad ph %q", i, ph)
		}
		if _, ok := ev["pid"]; !ok {
			t.Errorf("event %d: missing pid", i)
		}
		if _, ok := ev["tid"]; !ok {
			t.Errorf("event %d: missing tid", i)
		}
		if ph != "M" {
			if _, ok := ev["ts"]; !ok {
				t.Errorf("event %d: missing ts", i)
			}
		}
		if ph == "X" {
			if _, ok := ev["dur"]; !ok && ev["name"] != "read" {
				// dur omitted only for zero-duration slices.
				t.Errorf("event %d: X without dur", i)
			}
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	evs := buildTimeline().Events()

	var chrome bytes.Buffer
	if err := EncodeChrome(&chrome, evs); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(chrome.Bytes())
	if err != nil {
		t.Fatalf("decode chrome: %v", err)
	}
	if len(back) != len(evs) {
		t.Fatalf("chrome round-trip: %d events, want %d", len(back), len(evs))
	}

	var jsonl bytes.Buffer
	if err := EncodeJSONL(&jsonl, evs); err != nil {
		t.Fatal(err)
	}
	back, err = DecodeTrace(jsonl.Bytes())
	if err != nil {
		t.Fatalf("decode jsonl: %v", err)
	}
	if len(back) != len(evs) {
		t.Fatalf("jsonl round-trip: %d events, want %d", len(back), len(evs))
	}
	for i := range back {
		a, b := back[i], evs[i]
		if a.Name != b.Name || a.Cat != b.Cat || a.Ph != b.Ph ||
			a.TS != b.TS || a.Dur != b.Dur || a.PID != b.PID || a.TID != b.TID {
			t.Errorf("event %d changed: %+v vs %+v", i, a, b)
		}
	}
}

// TestDecodeTraceChromeKeyOrder: a Chrome trace is recognised by its
// traceEvents key wherever that key sits, not only in the file's first
// bytes.
func TestDecodeTraceChromeKeyOrder(t *testing.T) {
	evs := []Event{
		{Name: "write", Cat: "direct", Ph: "X", TS: 500, Dur: 20, PID: PIDMachine, TID: 1},
		{Name: "guest/1", Cat: "quantum", Ph: "X", Dur: 1000, PID: PIDScheduler, TID: 1},
	}
	body, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	head := `{"displayTimeUnit":"ns","otherData":{"producer":"a tool that writes its metadata first"},`
	for _, sep := range []string{"", "\n"} {
		got, err := DecodeTrace([]byte(head + sep + `"traceEvents":` + sep + string(body) + sep + "}\n"))
		if err != nil {
			t.Fatalf("separator %q: %v", sep, err)
		}
		if !reflect.DeepEqual(got, evs) {
			t.Errorf("separator %q: decoded %+v, want %+v", sep, got, evs)
		}
	}
}

// TestDecodeTraceJSONLLineNumbers: a JSONL decode error names the line of
// the file it is on, counting leading blank lines.
func TestDecodeTraceJSONLLineNumbers(t *testing.T) {
	data := "\n\n" + `{"name":"write","ph":"X","ts":1,"pid":1,"tid":1}` + "\n" + `{"name":"read","ph":"X","ts":"late"}` + "\n"
	_, err := DecodeTrace([]byte(data))
	if err == nil || !strings.Contains(err.Error(), "jsonl line 4:") {
		t.Fatalf("error = %v, want one naming jsonl line 4", err)
	}
}

// FuzzDecodeTrace: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to bytes that decode and encode back to themselves,
// in both formats.
func FuzzDecodeTrace(f *testing.F) {
	evs := buildTimeline().Events()
	for _, enc := range []func(io.Writer, []Event) error{EncodeChrome, EncodeJSONL} {
		var b bytes.Buffer
		if err := enc(&b, evs); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte(`{"displayTimeUnit":"ns","traceEvents":[{"name":"a","ph":"i","ts":3,"pid":1,"tid":2,"args":{"k":"v"}}]}`))
	f.Add([]byte("\n\n{\"name\":\"a\"}\n{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeTrace(data)
		if err != nil {
			return
		}
		for _, enc := range []func(io.Writer, []Event) error{EncodeChrome, EncodeJSONL} {
			var once, twice bytes.Buffer
			if err := enc(&once, evs); err != nil {
				t.Fatal(err)
			}
			back, err := DecodeTrace(once.Bytes())
			if err != nil {
				t.Fatalf("re-decoding %q: %v", once.Bytes(), err)
			}
			if err := enc(&twice, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatalf("encode -> decode -> encode changed the bytes:\n%s\n%s", once.Bytes(), twice.Bytes())
			}
		}
	})
}
