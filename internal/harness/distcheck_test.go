package harness

import (
	"testing"

	"pctwm/internal/distcheck"
	"pctwm/internal/litmus"
)

// distCheckFastConfig shrinks the campaign for single-program tests;
// the statistical margins stay comfortable at these sizes.
func distCheckFastConfig() distcheck.Config {
	return distcheck.Config{Runs: 2000, PermRounds: 3000}
}

// TestDistCheckCampaign is the CI conformance gate: over the default
// small-litmus suite with estimated parameters and the default fixed
// seed, the shipped strategies pass every distributional check and the
// colliding regression fixture is detected.
func TestDistCheckCampaign(t *testing.T) {
	res, err := DistCheckCampaign(nil, DistCheckConfig{})
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
			t.Logf("fixture %-16s pass=%v chi2=%.2f p=%g", r.Strategy, r.Pass, r.Stat, r.P)
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
	res, err := DistCheckCampaign([]*litmus.Test{litmus.SBRelaxed()}, DistCheckConfig{
		Check: distCheckFastConfig(),
	})
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
