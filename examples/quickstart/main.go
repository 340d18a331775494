// Quickstart: test the store-buffering program (paper §2.1, Program SB)
// under all three strategies and show how often each exposes the non-SC
// outcome a = b = 0 — a weak memory behaviour no interleaving execution
// can produce.
package main

import (
	"fmt"

	"pctwm"
)

func main() {
	// Program SB: two threads, two shared variables.
	//
	//	X = 1;      Y = 1;
	//	a = Y;      b = X;
	//	assert(a == 1 || b == 1)
	p := pctwm.NewProgram("store-buffering")
	x := p.Loc("X", 0)
	y := p.Loc("Y", 0)
	// Observation registers: written non-atomically by their own thread,
	// read back from the final state after each run.
	ra := p.Loc("a", -1)
	rb := p.Loc("b", -1)

	p.AddThread(func(t *pctwm.Thread) {
		t.Store(x, 1, pctwm.Relaxed)
		t.Store(ra, t.Load(y, pctwm.Relaxed), pctwm.NonAtomic)
	})
	p.AddThread(func(t *pctwm.Thread) {
		t.Store(y, 1, pctwm.Relaxed)
		t.Store(rb, t.Load(x, pctwm.Relaxed), pctwm.NonAtomic)
	})

	// The assertion of Program SB, checked on the final state.
	violated := func(o *pctwm.Outcome) bool {
		return o.FinalValues["a"] == 0 && o.FinalValues["b"] == 0
	}

	// Estimate the program parameters from profiling runs (the paper's
	// k and kcom inputs).
	est := pctwm.Estimate(p, pctwm.Options{})
	fmt.Printf("estimated k=%d events, kcom=%d communication events\n\n", est.K, est.KCom)

	const rounds = 1000
	strategies := []func() pctwm.Strategy{
		func() pctwm.Strategy { return pctwm.NewRandomStrategy() },
		func() pctwm.Strategy { return pctwm.NewPCT(1, est.K) },
		func() pctwm.Strategy { return pctwm.NewPCTWM(0, 1, est.KCom) },
	}
	for _, newStrategy := range strategies {
		name := newStrategy().Name()
		res := pctwm.RunTrials(p, violated, newStrategy, rounds, 42, pctwm.Options{})
		fmt.Printf("%-10s found a=b=0 in %4d/%d rounds (%5.1f%%)\n",
			name, res.Hits, res.Runs, res.Rate())
	}
	fmt.Println("\nPCTWM with d=0 samples the execution with no communication")
	fmt.Println("between the threads: both loads read their thread-local views,")
	fmt.Println("so every round exposes the weak outcome.")
}
