// Command pctwm-trace finds a failing execution of a benchmark, replays
// it deterministically, and renders its execution graph — either as a
// per-thread text listing or as Graphviz DOT — together with the C11
// consistency verdict and any detected data races.
//
// Usage:
//
//	pctwm-trace -b dekker [-strategy pctwm] [-d D] [-y H] [-s SEED] [-rounds N] [-dot]
//	            [-perfetto out.json]
//
// -perfetto additionally writes the failing schedule as a Chrome
// trace-event JSON document (one track per thread, a slice per event,
// flow arrows for reads-from edges, instant markers on PCTWM priority
// change points) that ui.perfetto.dev or chrome://tracing load directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pctwm/internal/apps"
	"pctwm/internal/axiom"
	"pctwm/internal/benchprog"
	"pctwm/internal/engine"
	"pctwm/internal/harness"
	"pctwm/internal/memmodel"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
	"pctwm/internal/telemetry/perfetto"
)

func main() {
	var (
		bench    = flag.String("b", "dekker", "benchmark or application name")
		strategy = flag.String("strategy", "pctwm", "strategy used to find the execution: c11tester, pct, pctwm")
		depth    = flag.Int("d", -1, "bug depth (-1 = the benchmark's designed depth)")
		history  = flag.Int("y", 1, "history depth (pctwm)")
		seed     = flag.Int64("s", 1, "base random seed")
		rounds   = flag.Int("rounds", 2000, "maximum rounds to search for a failing execution")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT instead of text")
		model    = flag.String("engine.model", engine.ModelRC11, "memory model backend: rc11, sc, tso (the recheck verifies the same model's axioms)")
		perfOut  = flag.String("perfetto", "", "also write the failing schedule as Chrome trace-event JSON to this file")
	)
	flag.Parse()
	if !engine.ValidModel(*model) {
		fmt.Fprintf(os.Stderr, "pctwm-trace: unknown memory model %q (have %v)\n", *model, engine.Models())
		os.Exit(2)
	}
	if *model == "" {
		*model = engine.ModelRC11 // "" selects the default backend
	}

	prog, detect, opts, designDepth, err := lookup(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pctwm-trace:", err)
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
		fmt.Fprintf(os.Stderr, "pctwm-trace: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	est := harness.EstimateParams(prog, 20, *seed^0x5eed, opts)

	// Search for a failing round, recording the decision sequence and —
	// with fresh engine counters per round — the PCTWM priority change
	// points of exactly the round that hit (accumulating one shared
	// counter across rounds would mix the change-point logs).
	var trace *replay.Trace
	var tel *telemetry.EngineCounters
	found := false
	for i := 0; i < *rounds && !found; i++ {
		roundTel := &telemetry.EngineCounters{}
		roundOpts := opts
		roundOpts.Telemetry = roundTel
		rec := replay.NewRecorder(factory(est))
		ro := engine.Run(prog, rec, *seed+int64(i), roundOpts)
		if detect(ro) {
			trace, tel, found = rec.Trace(), roundTel, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "pctwm-trace: no failing execution of %s in %d rounds\n", *bench, *rounds)
		os.Exit(1)
	}

	// Replay with recording to obtain the execution graph.
	opts.Record = true
	o := engine.Run(prog, replay.NewPlayer(trace), 0, opts)
	if !detect(o) {
		fmt.Fprintln(os.Stderr, "pctwm-trace: replay lost the failure")
		os.Exit(1)
	}
	g, err := axiom.FromRecording(o.Recording)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pctwm-trace:", err)
		os.Exit(1)
	}
	locName := func(l memmodel.Loc) string {
		if n, ok := o.Recording.LocNames[l]; ok {
			return n
		}
		return fmt.Sprintf("x%d", l)
	}

	if *perfOut != "" {
		data, err := perfetto.Marshal(o.Recording, tel.ChangePoints)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pctwm-trace:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*perfOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "pctwm-trace:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pctwm-trace: wrote Perfetto trace to %s (open in ui.perfetto.dev)\n", *perfOut)
	}

	if *dot {
		if err := g.WriteDot(os.Stdout, locName); err != nil {
			fmt.Fprintln(os.Stderr, "pctwm-trace:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("failing execution of %s (%s, %d events):\n\n", *bench, *strategy, len(g.Events))
	if err := g.WriteText(os.Stdout, locName); err != nil {
		fmt.Fprintln(os.Stderr, "pctwm-trace:", err)
		os.Exit(1)
	}
	fmt.Println()
	for _, m := range o.BugMessages {
		fmt.Println("assertion:", m)
	}
	for _, r := range o.Races {
		fmt.Println("race:", r)
	}
	checkStart := time.Now()
	vs := g.CheckModel(*model)
	tel.AddAxiomRecheck(time.Since(checkStart).Nanoseconds())
	if len(vs) == 0 {
		fmt.Printf("consistency: the execution satisfies the %s axioms (rechecked in %v)\n",
			*model, time.Duration(tel.AxiomRecheckNs).Round(time.Microsecond))
	} else {
		for _, v := range vs {
			fmt.Println("consistency VIOLATION:", v)
		}
	}
}

func lookup(name string) (prog *engine.Program, detect func(*engine.Outcome) bool, opts engine.Options, depth int, err error) {
	if b, berr := benchprog.ByName(name); berr == nil {
		return b.Program(0), b.Detect, b.Options(), b.Depth, nil
	}
	if a, aerr := apps.ByName(name); aerr == nil {
		return a.Program(), func(o *engine.Outcome) bool { return o.Failed() }, a.Options(), 2, nil
	}
	return nil, nil, engine.Options{}, 0, fmt.Errorf("unknown benchmark or application %q", name)
}
