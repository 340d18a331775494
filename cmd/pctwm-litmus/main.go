// Command pctwm-litmus runs the weak-memory litmus conformance suite
// under a chosen strategy and reports the observed outcome histograms.
//
// Usage:
//
//	pctwm-litmus [-strategy c11tester|pct|pctwm] [-runs N] [-d D] [-y H] [-s SEED]
//	             [-coverage [-workers N] [-census FILE]]
//
// The flag names -d (bug depth), -y (history depth) and -s (seed) follow
// the paper's artifact (Appendix A.5).
//
// -coverage additionally runs each test as a behavior-coverage campaign:
// every complete trial is fingerprinted (internal/coverage) and the
// distinct-behavior count and saturation estimate are printed per test.
// -census cross-validates the campaign against a ground-truth census
// written by `pctwm-explore -census`: the campaign's behavior set must
// equal the exhaustive enumeration's exactly (the campaign is expected
// to saturate at -runs trials; the command exits 1 on any mismatch).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
)

func main() {
	var (
		strategy = flag.String("strategy", "c11tester", "testing strategy: c11tester, pct, pctwm")
		runs     = flag.Int("runs", 2000, "rounds per litmus test")
		depth    = flag.Int("d", 2, "bug depth (pct, pctwm)")
		history  = flag.Int("y", 2, "history depth (pctwm)")
		seed     = flag.Int64("s", 1, "base random seed")
		model    = flag.String("engine.model", engine.ModelRC11, "memory model backend: rc11, sc, tso (outcomes classify against that model's table)")
		covFlag  = flag.Bool("coverage", false, "run each test as a behavior-coverage campaign and print saturation per test")
		workers  = flag.Int("workers", 1, "with -coverage: campaign workers (0 = GOMAXPROCS; results identical)")
		census   = flag.String("census", "", "with -coverage: verify campaign behavior sets against this pctwm-explore -census file (exit 1 on mismatch)")
	)
	flag.Parse()
	if !engine.ValidModel(*model) {
		fmt.Fprintf(os.Stderr, "pctwm-litmus: unknown memory model %q (have %v)\n", *model, engine.Models())
		os.Exit(2)
	}
	if *model == "" {
		*model = engine.ModelRC11 // "" selects the default backend
	}
	if *census != "" && !*covFlag {
		fmt.Fprintln(os.Stderr, "pctwm-litmus: -census requires -coverage")
		os.Exit(2)
	}

	newStrategy, err := makeFactory(*strategy, *depth, *history)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pctwm-litmus:", err)
		os.Exit(2)
	}

	// The census file is an array (one entry per test pctwm-explore ran);
	// index it by program name, keeping only entries for the active model.
	censuses := map[string]*enumerate.Census{}
	if *census != "" {
		data, err := os.ReadFile(*census)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-litmus: %v\n", err)
			os.Exit(2)
		}
		var list []*enumerate.Census
		if err := json.Unmarshal(data, &list); err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-litmus: %s: %v\n", *census, err)
			os.Exit(2)
		}
		for _, c := range list {
			if c.Model == *model {
				censuses[c.Program] = c
			}
		}
	}

	failures := 0
	for _, t := range litmus.Suite() {
		opts := engine.Options{Model: *model}
		rep := t.RunOpts(newStrategy, *runs, *seed, opts)
		status := "ok  "
		switch {
		case len(rep.Illegal) > 0:
			// Observing a forbidden outcome is a genuine conformance
			// failure under any strategy.
			status = "FAIL"
			failures++
		case len(rep.Missing) > 0:
			// Missing weak outcomes are statistical (and expected of the
			// bounded strategies); exhaustive reachability is verified by
			// pctwm-explore and the enumerate test suite.
			status = "warn"
		}
		fmt.Printf("%s %s\n", status, rep)
		if *covFlag {
			failures += runCoverage(t, newStrategy, *runs, *seed, opts, *workers, censuses)
		}
	}
	if failures > 0 {
		fmt.Printf("%d conformance failure(s) under %s\n", failures, *model)
		os.Exit(1)
	}
	fmt.Printf("all litmus tests conform to the %s model\n", *model)
}

// runCoverage runs one litmus test as a behavior-coverage campaign,
// prints the saturation digest, and (when a census is available for the
// test) verifies census equality. Returns the number of failures.
func runCoverage(t *litmus.Test, newStrategy func() engine.Strategy, runs int, seed int64,
	opts engine.Options, workers int, censuses map[string]*enumerate.Census) int {
	camp := harness.Campaign{Workers: workers, Coverage: true}
	noHit := func(*engine.Outcome) bool { return false }
	res := harness.RunCampaign(t.Program, noHit, newStrategy, runs, seed, opts, camp)
	if res.Coverage == nil {
		fmt.Printf("     coverage: no complete trials\n")
		return 1
	}
	st := res.Coverage.Stats()
	fmt.Printf("     coverage: %d behavior(s) in %d trial(s), est_unseen %.2f%%, last novel at trial %d\n",
		st.Behaviors, st.Observations, 100*st.UnseenMass, st.LastNovel)
	c, ok := censuses[t.Program.Name()]
	if !ok {
		return 0
	}
	got, want := res.Coverage.Fingerprints(), c.Fingerprints()
	if slices.Equal(got, want) {
		fmt.Printf("     census: equal (%d behavior(s)) ✓\n", len(want))
		return 0
	}
	extra, missing := 0, 0
	for _, fp := range got {
		if !slices.Contains(want, fp) {
			extra++
		}
	}
	for _, fp := range want {
		if !slices.Contains(got, fp) {
			missing++
		}
	}
	// A behavior outside the census means the fingerprinting (or the
	// enumeration) is unsound; a missing one means the campaign did not
	// saturate at this trial count. Both fail the cross-validation.
	fmt.Printf("     census: MISMATCH — campaign %d vs census %d behavior(s) (%d unseen by campaign, %d outside census)\n",
		len(got), len(want), missing, extra)
	return 1
}

func makeFactory(name string, d, h int) (func() engine.Strategy, error) {
	switch name {
	case "c11tester":
		return func() engine.Strategy { return core.NewRandom() }, nil
	case "pct":
		return func() engine.Strategy { return core.NewPCT(d, 30) }, nil
	case "pctwm":
		return func() engine.Strategy { return core.NewPCTWM(d, h, 15) }, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", name)
	}
}
