package main

import (
	"fmt"
	"io"

	"pctwm/internal/harness"
)

// runCmd is `pctwm run`: it tests a single benchmark or application under
// one strategy, mirroring the paper artifact's per-program runner.
//
//	pctwm run -b dekker [-strategy pctwm] [-runs 1000] [-d D] [-y H] [-s SEED] [-extra-writes N] [-v]
//
// The strategy parameters k and kcom are estimated by the rule every
// command and report section uses, Table 1's (harness.Profile): for a
// benchmark, run prints Table 1's k and kcom, and its campaign at -s S
// is the report's campaign at seed S. -b accepts the nine Table-1
// benchmark names, p1, mp2, and the application names iris, mabain,
// silo. -v first searches for and prints the first failing round.
func runCmd(args []string, stdout, stderr io.Writer) int {
	c := newCmd("run", stdout, stderr)
	name := c.String("b", "", "benchmark or application name (required)")
	t := c.trialFlags("pctwm", 1000, -1, 1, "number of test rounds")
	extra := c.Int("extra-writes", 0, "inserted relaxed writes (figure 6 instrumentation)")
	verbose := c.Bool("v", false, "print the first detected failure")
	model := c.model("memory model backend: rc11, sc, tso")
	if code, ok := c.parse(args); !ok {
		return code
	}
	if *name == "" {
		c.Usage()
		return 2
	}
	tr, err := t.trial(*name, model.name, *extra)
	if err != nil {
		return c.fail(2, "%v", err)
	}
	fmt.Fprintf(stdout, "%s under %s: estimated k=%d kcom=%d threads=%d\n",
		*name, t.strategy, tr.est.K, tr.est.KCom, tr.est.Threads)

	if *verbose {
		if round, o, ok := t.firstFailure(tr); ok {
			fmt.Fprintf(stdout, "first failure at round %d (seed %d):\n", round, t.seed+int64(round))
			for _, m := range o.BugMessages {
				fmt.Fprintln(stdout, "  assertion:", m)
			}
			for _, r := range o.Races {
				fmt.Fprintln(stdout, "  race:", r)
			}
		}
	}

	res := harness.RunCampaign(tr.prog, tr.detect, tr.newStrategy, t.runs, t.seed, tr.opts, harness.Campaign{Workers: 1})
	fmt.Fprintf(stdout, "bug hitting rate: %s\n", res.String())
	if res.Aborted > 0 || res.Deadlock > 0 {
		fmt.Fprintf(stdout, "warning: %d aborted, %d deadlocked runs\n", res.Aborted, res.Deadlock)
	}
	return 0
}
