package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"pctwm/internal/axiom"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
	"pctwm/internal/telemetry"
	"pctwm/internal/telemetry/perfetto"
)

// traceCmd is `pctwm trace`: it finds a failing execution of a benchmark,
// re-runs its seed with recording and engine counters on, and renders its
// execution graph — either as a per-thread text listing or as Graphviz
// DOT — together with the consistency verdict under the -engine.model
// axioms and any detected data races. It exits 1 when no round of -runs
// fails, or when the re-run does not fail.
//
//	pctwm trace -b dekker [-strategy pctwm] [-d D] [-y H] [-s SEED] [-runs N] [-dot]
//	            [-perfetto out.json]
//
// -b takes the same names as `pctwm run -b`. -perfetto additionally
// writes the failing schedule as a Chrome trace-event JSON document (one
// track per thread, a slice per event, flow arrows for reads-from edges,
// instant markers on PCTWM priority change points) that ui.perfetto.dev
// or chrome://tracing load directly.
func traceCmd(args []string, stdout, stderr io.Writer) int {
	c := newCmd("trace", stdout, stderr)
	name := c.String("b", "dekker", "benchmark or application name")
	t := c.trialFlags("pctwm", 2000, -1, 1, "maximum rounds to search for a failing execution")
	dot := c.Bool("dot", false, "emit Graphviz DOT instead of text")
	perfOut := c.String("perfetto", "", "also write the failing schedule as Chrome trace-event JSON to this file")
	model := c.model("memory model backend: rc11, sc, tso (the recheck verifies the same model's axioms)")
	if code, ok := c.parse(args); !ok {
		return code
	}
	tr, err := t.trial(*name, model.name, 0)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	round, _, ok := t.firstFailure(tr)
	if !ok {
		return c.fail(1, "no failing execution of %s in %d rounds", *name, t.runs)
	}

	// A run is a function of its seed: the failing round's seed, re-run
	// with recording and counters on, yields its execution graph and its
	// PCTWM change points.
	seed := t.seed + int64(round)
	tel := &telemetry.EngineCounters{}
	opts := tr.opts
	opts.Record, opts.Telemetry = true, tel
	o := engine.Run(tr.prog, tr.newStrategy(), seed, opts)
	if !tr.detect(o) {
		return c.fail(1, "the re-run of seed %d lost the failure", seed)
	}
	// The recheck is the graph build and the check together: hb and sw
	// are derived inside the check, so it runs before the rendering.
	recheckStart := time.Now()
	g, err := axiom.FromRecording(o.Recording)
	if err != nil {
		return c.fail(1, "%v", err)
	}
	vs := g.CheckModel(o.Recording.Model)
	tel.AddAxiomRecheck(time.Since(recheckStart).Nanoseconds())
	locName := func(l memmodel.Loc) string {
		if n, ok := o.Recording.LocNames[l]; ok {
			return n
		}
		return fmt.Sprintf("x%d", l)
	}

	if *perfOut != "" {
		data, err := perfetto.Marshal(o.Recording, tel.ChangePoints)
		if err != nil {
			return c.fail(1, "%v", err)
		}
		if err := os.WriteFile(*perfOut, append(data, '\n'), 0o644); err != nil {
			return c.fail(1, "%v", err)
		}
		c.logf("wrote Perfetto trace to %s (open in ui.perfetto.dev)", *perfOut)
	}

	if *dot {
		if err := g.WriteDot(stdout, locName); err != nil {
			return c.fail(1, "%v", err)
		}
		return 0
	}

	fmt.Fprintf(stdout, "failing execution of %s (%s, %d events):\n\n", *name, t.strategy, len(g.Events))
	if err := g.WriteText(stdout, locName); err != nil {
		return c.fail(1, "%v", err)
	}
	fmt.Fprintln(stdout)
	for _, m := range o.BugMessages {
		fmt.Fprintln(stdout, "assertion:", m)
	}
	for _, r := range o.Races {
		fmt.Fprintln(stdout, "race:", r)
	}
	if len(vs) == 0 {
		fmt.Fprintf(stdout, "consistency: the execution satisfies the %s axioms (rechecked in %v)\n",
			model.name, time.Duration(tel.AxiomRecheckNs).Round(time.Microsecond))
	} else {
		for _, v := range vs {
			fmt.Fprintln(stdout, "consistency VIOLATION:", v)
		}
	}
	return 0
}
