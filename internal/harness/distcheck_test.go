package harness

import (
	"reflect"
	"testing"

	"pctwm/internal/engine"
	"pctwm/internal/litmus"
)

// TestDistCheckCampaign is the CI conformance gate: over the default
// small-litmus suite with estimated parameters and a fixed seed, the
// shipped strategies pass every distributional check and the colliding
// regression fixture is detected.
func TestDistCheckCampaign(t *testing.T) {
	res, err := DistCheckCampaign(nil, 1, engine.Options{}, Campaign{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Conformance.Results {
		t.Logf("%-11s %-10s %-12s pass=%-5v p=%-10.3g %s",
			r.Check, r.Strategy, r.Program, r.Pass, r.P, r.Detail)
	}
	if !res.Conformance.Passed {
		t.Errorf("conformance failures: %+v", res.Conformance.Failures())
	}
	if !res.Detected {
		for _, r := range res.Fixtures.Results {
			t.Logf("fixture %-16s pass=%v %s", r.Strategy, r.Pass, r.Detail)
		}
		t.Error("colliding fixture was not detected")
	}
	if res.Passed != (res.Conformance.Passed && res.Detected) {
		t.Error("Passed is not the conjunction of Conformance.Passed and Detected")
	}
}

// TestDistCheckCampaignCustomSuite: an explicit test list overrides the
// default suite, and the estimated parameters flow into the bounds.
func TestDistCheckCampaignCustomSuite(t *testing.T) {
	res, err := DistCheckCampaign([]*litmus.Test{litmus.SBRelaxed()}, 1, engine.Options{}, Campaign{})
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]bool{}
	for _, r := range res.Conformance.Results {
		if r.Program != "" {
			progs[r.Program] = true
		}
	}
	if len(progs) != 1 || !progs["SB+rlx"] {
		t.Fatalf("expected checks over SB+rlx only, got %v", progs)
	}
	if !res.Passed {
		t.Fatalf("SB-only campaign failed: %+v", res.Conformance.Failures())
	}
}

// TestDistCheckCampaignWorkers: the gate samples through RunCampaign, so
// its report does not depend on the worker count.
func TestDistCheckCampaignWorkers(t *testing.T) {
	serial, err := DistCheckCampaign(nil, 7, engine.Options{}, Campaign{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := DistCheckCampaign(nil, 7, engine.Options{}, Campaign{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("reports differ between 1 and 3 workers:\n%+v\n%+v", serial.Conformance.Results, parallel.Conformance.Results)
	}
}
