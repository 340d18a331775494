package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/harness"
	"pctwm/internal/litmus"
)

// litmusCmd is `pctwm litmus`: it runs the weak-memory litmus
// conformance suite under a chosen strategy and reports the observed
// outcome histograms. It exits 1 on a conformance failure.
//
//	pctwm litmus [-strategy c11tester|pct|pctwm] [-runs N] [-d D] [-y H] [-s SEED]
//	             [-workers N] [-coverage [-census FILE]]
//
// Each test runs as one campaign (harness.RunLitmus) of -runs trials
// under -engine.model, round i at seed+i, over -workers workers, with
// the strategy at the test's estimate under that model (harness.Profile,
// the rule every command uses). Its detect hook tallies the outcome
// histogram (litmus.Report), and the report is the same at every worker
// count. A trial whose panic the campaign quarantined fails the test.
// -coverage also fingerprints every complete trial of that campaign
// (internal/coverage) and prints the distinct-behavior count and
// saturation estimate per test.
// -census cross-validates the campaign against a ground-truth census
// written by `pctwm explore -census`: the campaign's behavior set must
// equal the exhaustive enumeration's exactly (the campaign is expected
// to saturate at -runs trials; the command exits 1 on any mismatch). A
// census with no entry for the active model, or with an entry for the
// active model that names a program outside the suite or is incomplete
// (its exploration was cut short by -limit or a signal), is a usage
// error.
func litmusCmd(args []string, stdout, stderr io.Writer) int {
	c := newCmd("litmus", stdout, stderr)
	t := c.trialFlags("c11tester", 2000, 2, 2, "rounds per litmus test")
	covFlag := c.Bool("coverage", false, "also collect behavior coverage and print saturation per test")
	workers := c.Int("workers", 1, "campaign workers per test (0 = GOMAXPROCS; reports identical)")
	census := c.String("census", "", "with -coverage: verify campaign behavior sets against this census file from pctwm explore -census (exit 1 on mismatch)")
	model := c.model("memory model backend: rc11, sc, tso (outcomes classify against that model's table)")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *census != "" && !*covFlag {
		return c.fail(2, "-census requires -coverage")
	}
	factory := strategies[string(t.strategy)](t.depth, t.history)
	opts := engine.Options{Model: model.name}

	suite := litmus.Suite()
	// The census file is an array (one entry per test `pctwm explore`
	// ran); index it by program name, keeping only entries for the active
	// model, each of which must name a suite program.
	censuses := map[string]*enumerate.Census{}
	if *census != "" {
		data, err := os.ReadFile(*census)
		if err != nil {
			return c.fail(2, "%v", err)
		}
		var list []*enumerate.Census
		if err := json.Unmarshal(data, &list); err != nil {
			return c.fail(2, "%s: %v", *census, err)
		}
		for _, cen := range list {
			if cen.Model != model.name {
				continue
			}
			if !slices.ContainsFunc(suite, func(lt *litmus.Test) bool { return lt.Program.Name() == cen.Program }) {
				return c.fail(2, "%s: %s census entry names %q, which is not in the litmus suite", *census, model.name, cen.Program)
			}
			if !cen.Complete {
				return c.fail(2, "%s: %s census of %s is incomplete: its exploration was cut short, so it is a lower bound only",
					*census, model.name, cen.Program)
			}
			censuses[cen.Program] = cen
		}
		if len(censuses) == 0 {
			return c.fail(2, "%s has no census entry for model %s", *census, model.name)
		}
	}

	failures := 0
	for _, lt := range suite {
		est := harness.Profile(lt.Program, opts)
		rep, res := harness.RunLitmus(lt, func() engine.Strategy { return factory(est) }, t.runs, t.seed, opts,
			harness.Campaign{Workers: *workers, Coverage: *covFlag})
		status := "ok  "
		switch {
		case len(rep.Illegal) > 0 || rep.Panics > 0:
			// Observing a forbidden outcome is a genuine conformance
			// failure under any strategy; a trial whose panic escaped
			// the engine is a strategy or harness bug.
			status = "FAIL"
			failures++
		case len(rep.Missing) > 0:
			// Missing weak outcomes are statistical (and expected of the
			// bounded strategies); exhaustive reachability is verified by
			// `pctwm explore` and the enumerate test suite.
			status = "warn"
		}
		fmt.Fprintf(stdout, "%s %s\n", status, rep)
		if *covFlag {
			failures += printCoverage(stdout, res.Coverage, censuses[lt.Program.Name()])
		}
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d conformance failure(s) under %s\n", failures, model.name)
		return 1
	}
	fmt.Fprintf(stdout, "all litmus tests conform to the %s model\n", model.name)
	return 0
}

// printCoverage prints a test campaign's saturation digest and, when
// cen is the test's census, verifies census equality. Returns the
// number of failures.
func printCoverage(w io.Writer, cov *coverage.Set, cen *enumerate.Census) int {
	if cov == nil {
		fmt.Fprintf(w, "     coverage: no complete trials\n")
		return 1
	}
	st := cov.Stats()
	fmt.Fprintf(w, "     coverage: %d behavior(s) in %d trial(s), est_unseen %.2f%%, last novel at trial %d\n",
		st.Behaviors, st.Observations, 100*st.UnseenMass, st.LastNovel)
	if cen == nil {
		return 0
	}
	got, want := cov.Fingerprints(), cen.Fingerprints()
	if slices.Equal(got, want) {
		fmt.Fprintf(w, "     census: equal (%d behavior(s)) ✓\n", len(want))
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
	fmt.Fprintf(w, "     census: MISMATCH — campaign %d vs census %d behavior(s) (%d unseen by campaign, %d outside census)\n",
		len(got), len(want), missing, extra)
	return 1
}
