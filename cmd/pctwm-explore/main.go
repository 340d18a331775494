// Command pctwm-explore exhaustively enumerates every scheduling and
// reads-from choice of a litmus test (bounded model checking) and prints
// the reachable outcome histogram together with the declared expectation.
//
// Usage:
//
//	pctwm-explore                 # explore the whole litmus suite
//	pctwm-explore -t SB+rlx       # one test
//	pctwm-explore -limit 100000   # cap the exploration
//	pctwm-explore -engine.model tso   # exhaust the x86-TSO state space
//	pctwm-explore -workers 8      # shard subtrees across 8 workers
//	pctwm-explore -census FILE    # also write the behavior census (JSON)
//
// -census additionally enumerates each explored test's ground-truth
// behavior census — every distinct behavior fingerprint any schedule
// can realize (internal/coverage canonicalization) — and writes them as
// a JSON array. A saturated `pctwm-bench -coverage` campaign must
// reproduce exactly this fingerprint set (pctwm-bench -census verifies).
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
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
	"pctwm/internal/telemetry"
)

func main() {
	var (
		test    = flag.String("t", "", "litmus test name (empty = all)")
		limit   = flag.Int("limit", 2000000, "maximum executions to explore per test")
		model   = flag.String("engine.model", engine.ModelRC11, "memory model backend: rc11, sc, tso")
		workers = flag.Int("workers", 0, "exploration workers (0 = GOMAXPROCS, 1 = serial; results identical)")
		stats   = flag.Bool("stats", false, "print explorer telemetry (runs/steals/pruned) per test")
		census  = flag.String("census", "", "write the ground-truth behavior census of the explored tests to this JSON file")
	)
	flag.IntVar(workers, "explore.workers", 0, "alias for -workers")
	flag.Parse()
	if !engine.ValidModel(*model) {
		fmt.Fprintf(os.Stderr, "pctwm-explore: unknown memory model %q (have %v)\n", *model, engine.Models())
		os.Exit(2)
	}
	if *model == "" {
		*model = engine.ModelRC11 // "" selects the default backend
	}

	suite := litmus.Suite()
	if *test != "" {
		var filtered []*litmus.Test
		for _, lt := range suite {
			if lt.Name == *test {
				filtered = append(filtered, lt)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "pctwm-explore: unknown test %q; available:\n", *test)
			for _, lt := range suite {
				fmt.Fprintf(os.Stderr, "  %s\n", lt.Name)
			}
			os.Exit(2)
		}
		suite = filtered
	}

	// SIGINT/SIGTERM drain: cancel the exploration pool between
	// executions, print whatever partial histogram was merged, and exit
	// nonzero. A second signal kills the process immediately (stop()
	// restores default disposition).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	failures := 0
	interrupted := false
	var censuses []*enumerate.Census
	for _, lt := range suite {
		var tel telemetry.EngineCounters
		opts := engine.Options{Model: *model}
		if *stats {
			opts.Telemetry = &tel
		}
		counts, res := enumerate.Outcomes(lt.Program, opts,
			enumerate.Config{Limit: *limit, Workers: *workers, Context: ctx}, func(o *engine.Outcome) string {
				return lt.Outcome(o.FinalValues)
			})
		if res.Drift != nil {
			fmt.Fprintf(os.Stderr, "pctwm-explore: %s: %v\n", lt.Name, res.Drift)
			os.Exit(1)
		}
		if res.Interrupted {
			interrupted = true
			fmt.Fprintf(os.Stderr, "pctwm-explore: %s: interrupted after %d executions (partial results below)\n",
				lt.Name, res.Runs)
		}
		fmt.Printf("%s (%s) [model %s]\n", lt.Name, lt.Description, *model)
		fmt.Printf("  %d executions, complete=%v\n", res.Runs, res.Complete)
		if *stats {
			fmt.Printf("  explorer: %d engine runs, %d steals, %d pruned subtrees\n",
				tel.ExploreRuns, tel.ExploreSteals, tel.ExplorePruned)
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		exp := lt.Expect(*model)
		allowed := map[string]bool{}
		for _, a := range exp.Allowed {
			allowed[a] = true
		}
		forbidden := map[string]bool{}
		for _, f := range exp.Forbidden {
			forbidden[f] = true
		}
		for _, k := range keys {
			mark := " "
			if forbidden[k] || (len(exp.Allowed) > 0 && !allowed[k]) {
				mark = "✗ ILLEGAL"
				failures++
			}
			fmt.Printf("  [%s] ×%-6d %s\n", k, counts[k], mark)
		}
		if res.Complete {
			for _, f := range exp.Forbidden {
				fmt.Printf("  forbidden %q: unreachable ✓\n", f)
			}
		}
		if *census != "" && !interrupted {
			c, err := enumerate.BehaviorCensus(lt.Program, opts,
				enumerate.Config{Limit: *limit, Workers: *workers, Context: ctx})
			if err != nil {
				fmt.Fprintf(os.Stderr, "pctwm-explore: %s: census: %v\n", lt.Name, err)
				os.Exit(1)
			}
			fmt.Printf("  census: %d distinct behavior(s), complete=%v\n", len(c.Behaviors), c.Complete)
			censuses = append(censuses, c)
		}
		fmt.Println()
		if interrupted {
			// The context stays canceled; later tests would all report
			// zero executions. Stop after draining this one.
			break
		}
	}
	if *census != "" && !interrupted {
		data, err := json.MarshalIndent(censuses, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-explore: encoding census: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*census, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pctwm-explore: writing census: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("census: %d test(s) written to %s\n", len(censuses), *census)
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "pctwm-explore: interrupted; partial results printed")
		os.Exit(1)
	}
	if failures > 0 {
		fmt.Printf("%d illegal outcome(s)\n", failures)
		os.Exit(1)
	}
}
