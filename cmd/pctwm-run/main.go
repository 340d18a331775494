// Command pctwm-run tests a single benchmark or application under one
// strategy, mirroring the paper artifact's per-program runner.
//
// Usage:
//
//	pctwm-run -b dekker [-strategy pctwm] [-runs 1000] [-d D] [-y H] [-s SEED] [-extra N] [-v]
//
// Flag names follow the artifact (Appendix A.5): -d bug depth, -y history
// depth, -s seed. The strategy parameters k and kcom are estimated from
// profiling runs, as in the paper. -b accepts the nine Table-1 benchmark
// names, p1, mp2, and the application names iris, mabain, silo.
package main

import (
	"flag"
	"fmt"
	"os"

	"pctwm/internal/apps"
	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
)

func main() {
	var (
		bench    = flag.String("b", "", "benchmark or application name (required)")
		strategy = flag.String("strategy", "pctwm", "testing strategy: c11tester, pct, pctwm")
		runs     = flag.Int("runs", 1000, "number of test rounds")
		depth    = flag.Int("d", -1, "bug depth (-1 = the benchmark's designed depth)")
		history  = flag.Int("y", 1, "history depth (pctwm)")
		seed     = flag.Int64("s", 1, "base random seed")
		extra    = flag.Int("extra", 0, "inserted relaxed writes (figure 6 instrumentation)")
		verbose  = flag.Bool("v", false, "print the first detected failure")
		model    = flag.String("engine.model", engine.ModelRC11, "memory model backend: rc11, sc, tso")
	)
	flag.Parse()
	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	if !engine.ValidModel(*model) {
		fmt.Fprintf(os.Stderr, "pctwm-run: unknown memory model %q (have %v)\n", *model, engine.Models())
		os.Exit(2)
	}
	if *model == "" {
		*model = engine.ModelRC11 // "" selects the default backend
	}

	prog, detect, opts, designDepth, err := lookup(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pctwm-run:", err)
		os.Exit(2)
	}
	opts.Model = *model
	d := *depth
	if d < 0 {
		d = designDepth
	}

	var factory harness.StrategyFactory
	switch *strategy {
	case "c11tester":
		factory = harness.C11Tester()
	case "pct":
		factory = harness.PCTFactory(max(d, 1))
	case "pctwm":
		factory = harness.PCTWMFactory(d, *history)
	default:
		fmt.Fprintf(os.Stderr, "pctwm-run: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	est := harness.EstimateParams(prog(*extra), 20, *seed^0x5eed, opts)
	fmt.Printf("%s under %s: estimated k=%d kcom=%d threads=%d\n",
		*bench, *strategy, est.K, est.KCom, est.Threads)

	if *verbose {
		r := engine.NewRunner(prog(*extra), opts)
		defer r.Close()
		strat := factory(est)
		for i := 0; i < *runs; i++ {
			o := r.Run(strat, *seed+int64(i))
			if detect(o) {
				fmt.Printf("first failure at round %d (seed %d):\n", i, *seed+int64(i))
				for _, m := range o.BugMessages {
					fmt.Println("  assertion:", m)
				}
				for _, r := range o.Races {
					fmt.Println("  race:", r)
				}
				break
			}
		}
	}

	res := harness.RunCampaign(prog(*extra), detect, func() engine.Strategy { return factory(est) }, *runs, *seed, opts,
		harness.Campaign{Workers: 1})
	fmt.Printf("bug hitting rate: %s\n", res.String())
	if res.Aborted > 0 || res.Deadlock > 0 {
		fmt.Printf("warning: %d aborted, %d deadlocked runs\n", res.Aborted, res.Deadlock)
	}
}

func lookup(name string) (prog func(int) *engine.Program, detect func(*engine.Outcome) bool, opts engine.Options, depth int, err error) {
	switch name {
	case "p1":
		b := benchprog.P1(5)
		return b.Program, b.Detect, b.Options(), b.Depth, nil
	case "mp2":
		b := benchprog.MP2()
		return b.Program, b.Detect, b.Options(), b.Depth, nil
	}
	if b, berr := benchprog.ByName(name); berr == nil {
		return b.Program, b.Detect, b.Options(), b.Depth, nil
	}
	if a, aerr := apps.ByName(name); aerr == nil {
		return func(int) *engine.Program { return a.Program() },
			func(o *engine.Outcome) bool { return o.Failed() },
			a.Options(), 2, nil
	}
	return nil, nil, engine.Options{}, 0, fmt.Errorf("unknown benchmark or application %q", name)
}
