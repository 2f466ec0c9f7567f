package webbench_test

import (
	"reflect"
	"testing"

	"lazypoline/internal/experiments"
	"lazypoline/internal/guest"
	"lazypoline/internal/otrace"
	"lazypoline/internal/webbench"
)

// TestRequestTracerIsInert: a request tracer observes a cell without
// moving it (DESIGN.md §9). One small cell per Figure 5 mechanism runs
// with and without Config.Trace, and the Results must be equal.
func TestRequestTracerIsInert(t *testing.T) {
	for _, mech := range experiments.Figure5Mechanisms {
		t.Run(mech, func(t *testing.T) {
			cfg := webbench.Config{
				Style:       guest.StyleNginx,
				Workers:     2,
				FileSize:    1024,
				Connections: 6,
				Requests:    24,
				Attach:      experiments.AttachFunc(mech),
			}
			plain, err := webbench.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Requests != cfg.Requests {
				t.Fatalf("%d of %d requests completed", plain.Requests, cfg.Requests)
			}
			tr := otrace.New(otrace.Config{LatencyThreshold: 1})
			cfg.Trace = tr
			traced, err := webbench.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("traced cell diverged from plain:\nplain:  %+v\ntraced: %+v", plain, traced)
			}
			if len(tr.Export()) == 0 {
				t.Error("the tracer recorded nothing")
			}
		})
	}
}
