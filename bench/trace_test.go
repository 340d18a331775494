package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
)

// TestDecoratorTransparent: wrapping a strategy in the timing decorator
// changes no hit, event or behaviour of a campaign.
func TestDecoratorTransparent(t *testing.T) {
	for _, b := range []*benchprog.Benchmark{benchprog.Dekker(), benchprog.MSQueue()} {
		prog, opts := b.Program(0), b.Options()
		est := harness.EstimateParams(prog, 20, 3, opts)
		for _, s := range strategyNames {
			factory := strategyFactory(s, b.Depth)
			tr := newTracer()
			st := &stratStats{}
			camp := harness.Campaign{Workers: 1, Coverage: true}
			plain := harness.RunCampaign(prog, b.Detect, func() engine.Strategy { return factory(est) }, 300, 11, opts, camp)
			wrapped := harness.RunCampaign(prog, b.Detect, func() engine.Strategy { return tr.wrap(factory(est), st, true) }, 300, 11, opts, camp)
			if plain.Hits != wrapped.Hits || plain.TotalEvents != wrapped.TotalEvents {
				t.Errorf("%s/%s: wrapped campaign hit %d with %d events, plain %d with %d",
					b.Name, s, wrapped.Hits, wrapped.TotalEvents, plain.Hits, plain.TotalEvents)
			}
			if !slices.Equal(plain.Coverage.Fingerprints(), wrapped.Coverage.Fingerprints()) {
				t.Errorf("%s/%s: wrapped campaign saw %d behaviours, plain %d",
					b.Name, s, wrapped.Coverage.Len(), plain.Coverage.Len())
			}
			if st.calls[mBegin] != 300 || st.calls[mNextThread] == 0 {
				t.Errorf("%s/%s: decorator counted %d Begin and %d NextThread calls",
					b.Name, s, st.calls[mBegin], st.calls[mNextThread])
			}
		}
	}
}

// TestTracerSpans: self time excludes children, and only sampled trials
// are kept in full.
func TestTracerSpans(t *testing.T) {
	tr := newTracer()
	tr.open("outer", "cell", true)
	for range sampleEvery + 1 {
		tr.openTrial()
		s := nanotime()
		tr.leaf(tr.agg("core.NextThread"), "core.NextThread", s, s+10)
		tr.closeTrial()
	}
	tr.close()
	trial := tr.aggs["bench.trial"]
	if trial.Count != sampleEvery+1 || trial.SelfNs != trial.TotalNs-10*(sampleEvery+1) {
		t.Errorf("trial spans: %+v", *trial)
	}
	outer := tr.aggs["outer"]
	if outer.SelfNs != outer.TotalNs-trial.TotalNs {
		t.Errorf("outer self %d, want total %d less the trials' %d", outer.SelfNs, outer.TotalNs, trial.TotalNs)
	}
	// outer + two sampled trials (the first and the 1025th) with one call each.
	if len(tr.full) != 5 {
		t.Errorf("kept %d spans in full, want 5", len(tr.full))
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 || doc.TraceEvents[0].Name != "outer" || doc.TraceEvents[0].Ph != "X" {
		t.Errorf("chrome trace events: %+v", doc.TraceEvents)
	}
}
