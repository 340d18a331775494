package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
	"pctwm/internal/telemetry"
)

// exploreCmd is `pctwm explore`: it exhaustively enumerates every
// scheduling and reads-from choice of a litmus test (bounded model
// checking) and prints the reachable outcome histogram together with the
// declared expectation.
//
//	pctwm explore                       # explore the whole litmus suite
//	pctwm explore -t SB+rlx             # one test
//	pctwm explore -limit 100000         # cap the exploration
//	pctwm explore -engine.model tso     # exhaust the x86-TSO state space
//	pctwm explore -workers 8            # shard subtrees across 8 workers
//	pctwm explore -census FILE          # also write the behavior census (JSON)
//
// -census also fingerprints every execution of the same exploration
// (internal/coverage canonicalization) and writes each explored test's
// ground-truth behavior census — every distinct behavior fingerprint any
// schedule can realize — as a JSON array. A saturated `pctwm litmus
// -coverage` campaign must reproduce exactly this fingerprint set
// (`pctwm litmus -census` verifies). An interrupted run writes no
// census.
//
// Exploration shards disjoint decision-tree subtrees across -workers
// pooled engine runners (0 = GOMAXPROCS); outcome counts are merged
// deterministically, so the histogram is bit-identical at any worker
// count.
//
// With -engine.model the enumeration runs against that backend and the
// outcomes classify against the model's expectation table — the explored
// strategy is model-agnostic, so switching backends explores a different
// reachable set under identical machinery.
//
// The command exits 1 on an illegal outcome and on interruption.
func exploreCmd(args []string, stdout, stderr io.Writer) int {
	c := newCmd("explore", stdout, stderr)
	test := c.String("t", "", "litmus test name (empty = all)")
	limit := c.Int("limit", 2000000, "maximum executions to explore per test")
	workers := c.Int("workers", 0, "exploration workers (0 = GOMAXPROCS, 1 = serial; results identical)")
	stats := c.Bool("stats", false, "print explorer telemetry (runs/pruned) per test")
	census := c.String("census", "", "write the ground-truth behavior census of the explored tests to this JSON file")
	model := c.model("memory model backend: rc11, sc, tso")
	if code, ok := c.parse(args); !ok {
		return code
	}

	suite := litmus.Suite()
	if *test != "" {
		suite = slices.DeleteFunc(suite, func(lt *litmus.Test) bool { return lt.Name != *test })
		if len(suite) == 0 {
			c.logf("unknown test %q; available:", *test)
			for _, lt := range litmus.Suite() {
				fmt.Fprintf(stderr, "  %s\n", lt.Name)
			}
			return 2
		}
	}

	// SIGINT/SIGTERM drain: cancel the exploration pool between
	// executions, print whatever partial histogram was merged, and exit
	// 1. A second signal kills the process.
	ctx, stop := interruptContext()
	defer stop()

	// Each leaf is classified by its outcome and, with -census, by its
	// behavior; the histogram and the census both fold the leaf counts.
	type leaf struct {
		outcome  string
		behavior enumerate.Behavior
	}
	failures := 0
	interrupted := false
	var censuses []*enumerate.Census
	for _, lt := range suite {
		var tel telemetry.EngineCounters
		opts := engine.Options{Model: model.name, Coverage: *census != ""}
		if *stats {
			opts.Telemetry = &tel
		}
		cfg := enumerate.Config{Limit: *limit, Workers: *workers, Context: ctx}
		leaves, res := enumerate.Outcomes(lt.Program, opts, cfg, func(o *engine.Outcome) leaf {
			return leaf{lt.Outcome(o.FinalValues), enumerate.BehaviorOf(o)}
		})
		if res.Drift != nil {
			return c.fail(1, "%s: %v", lt.Name, res.Drift)
		}
		if res.Interrupted {
			interrupted = true
			c.logf("%s: interrupted after %d executions (partial results below)", lt.Name, res.Runs)
		}
		fmt.Fprintf(stdout, "%s (%s) [model %s]\n", lt.Name, lt.Description, model.name)
		fmt.Fprintf(stdout, "  %d executions, complete=%v\n", res.Runs, res.Complete)
		if *stats {
			fmt.Fprintf(stdout, "  explorer: %d engine runs, %d pruned subtrees\n", tel.ExploreRuns, tel.ExplorePruned)
		}
		counts := make(map[string]int)
		behaviors := make(map[enumerate.Behavior]int)
		for l, n := range leaves {
			counts[l.outcome] += n
			behaviors[l.behavior] += n
		}
		failures += printOutcomes(stdout, counts, lt.Expect(model.name), res.Complete)
		if *census != "" && !interrupted {
			cen := enumerate.NewCensus(lt.Program, model.name, behaviors, res)
			fmt.Fprintf(stdout, "  census: %d distinct behavior(s), complete=%v\n", len(cen.Behaviors), cen.Complete)
			censuses = append(censuses, cen)
		}
		fmt.Fprintln(stdout)
		if interrupted {
			// The context stays canceled; later tests would all report
			// zero executions. Stop after draining this one.
			break
		}
	}
	if *census != "" && !interrupted {
		if ctx.Err() != nil {
			// The signal landed after the last exploration had finished.
			return c.fail(1, "interrupted; census not written")
		}
		data, err := json.MarshalIndent(censuses, "", "  ")
		if err != nil {
			return c.fail(1, "encoding census: %v", err)
		}
		if err := os.WriteFile(*census, append(data, '\n'), 0o644); err != nil {
			return c.fail(1, "writing census: %v", err)
		}
		fmt.Fprintf(stdout, "census: %d test(s) written to %s\n", len(censuses), *census)
	}
	if interrupted {
		return c.fail(1, "interrupted; partial results printed")
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d illegal outcome(s)\n", failures)
		return 1
	}
	return 0
}

// printOutcomes prints one exploration's outcome histogram, marking each
// outcome exp makes illegal, and returns how many are illegal. After a
// complete exploration it also lists each forbidden outcome that no
// execution reached.
func printOutcomes(w io.Writer, counts map[string]int, exp litmus.Expectation, complete bool) int {
	illegal := 0
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		mark := " "
		if exp.Illegal(k) {
			mark = "✗ ILLEGAL"
			illegal++
		}
		fmt.Fprintf(w, "  [%s] ×%-6d %s\n", k, counts[k], mark)
	}
	if complete {
		for _, f := range exp.Forbidden {
			if counts[f] == 0 {
				fmt.Fprintf(w, "  forbidden %q: unreachable ✓\n", f)
			}
		}
	}
	return illegal
}
