package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"slices"
	"syscall"

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
// -census additionally enumerates each explored test's ground-truth
// behavior census — every distinct behavior fingerprint any schedule
// can realize (internal/coverage canonicalization) — and writes them as
// a JSON array. A saturated `pctwm litmus -coverage` campaign must
// reproduce exactly this fingerprint set (`pctwm litmus -census`
// verifies).
//
// Exploration shards disjoint decision-tree subtrees across -workers
// pooled engine runners (0 = GOMAXPROCS); outcome counts are merged
// deterministically, so the histogram is bit-identical at any worker
// count.
//
// With -engine.model the enumeration runs against that backend and the
// outcomes classify against the model's expectation table — the scripted
// enumeration strategy is model-agnostic, so switching backends explores
// a different reachable set under identical machinery.
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
	// 1. A second signal kills the process immediately (stop() restores
	// default disposition).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	failures := 0
	interrupted := false
	var censuses []*enumerate.Census
	for _, lt := range suite {
		var tel telemetry.EngineCounters
		opts := engine.Options{Model: model.name}
		if *stats {
			opts.Telemetry = &tel
		}
		cfg := enumerate.Config{Limit: *limit, Workers: *workers, Context: ctx}
		counts, res := enumerate.Outcomes(lt.Program, opts, cfg, func(o *engine.Outcome) string {
			return lt.Outcome(o.FinalValues)
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
		exp := lt.Expect(model.name)
		for _, k := range slices.Sorted(maps.Keys(counts)) {
			mark := " "
			if slices.Contains(exp.Forbidden, k) || (len(exp.Allowed) > 0 && !slices.Contains(exp.Allowed, k)) {
				mark = "✗ ILLEGAL"
				failures++
			}
			fmt.Fprintf(stdout, "  [%s] ×%-6d %s\n", k, counts[k], mark)
		}
		if res.Complete {
			for _, f := range exp.Forbidden {
				fmt.Fprintf(stdout, "  forbidden %q: unreachable ✓\n", f)
			}
		}
		if *census != "" && !interrupted {
			cen, err := enumerate.BehaviorCensus(lt.Program, opts, cfg)
			if err != nil {
				return c.fail(1, "%s: census: %v", lt.Name, err)
			}
			fmt.Fprintf(stdout, "  census: %d distinct behavior(s), complete=%v\n", len(cen.Behaviors), cen.Complete)
			censuses = append(censuses, cen)
			if ctx.Err() != nil {
				interrupted = true
				c.logf("%s: census interrupted after %d executions (partial census not written)", lt.Name, cen.Runs)
			}
		}
		fmt.Fprintln(stdout)
		if interrupted {
			// The context stays canceled; later tests would all report
			// zero executions. Stop after draining this one.
			break
		}
	}
	if *census != "" && !interrupted {
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
