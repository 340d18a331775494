// Primitives: build a small pipeline out of the conc package's verified
// synchronization primitives (mutex, wait group, barrier) and show that
// aggressive weak-memory testing finds nothing — then break one memory
// order and watch the same harness expose it immediately.
package main

import (
	"fmt"

	"pctwm"
	"pctwm/conc"
)

// buildCorrect wires three workers that publish results under a mutex,
// synchronize on a barrier, and a collector that waits for all of them.
func buildCorrect() *pctwm.Program {
	p := pctwm.NewProgram("pipeline")
	m := conc.NewMutex(p, "m")
	wg := conc.NewWaitGroup(p, "wg", 3)
	sum := p.Loc("sum", 0)

	for i := 0; i < 3; i++ {
		i := i
		p.AddThread(func(t *pctwm.Thread) {
			m.Lock(t)
			v := t.Load(sum, pctwm.NonAtomic) // plain access under the lock
			t.Store(sum, v+pctwm.Value(i+1), pctwm.NonAtomic)
			m.Unlock(t)
			wg.Done(t)
		})
	}
	p.AddNamedThread("collector", func(t *pctwm.Thread) {
		wg.Wait(t)
		total := t.Load(sum, pctwm.NonAtomic)
		t.Assert(total == 6, "collector saw partial sum %d", total)
	})
	return p
}

// buildBroken is the same pipeline with a hand-rolled "wait group" whose
// decrement is relaxed — the collector can pass the wait without
// acquiring the workers' writes.
func buildBroken() *pctwm.Program {
	p := pctwm.NewProgram("pipeline-broken")
	m := conc.NewMutex(p, "m")
	count := p.Loc("wg", 3)
	sum := p.Loc("sum", 0)

	for i := 0; i < 3; i++ {
		i := i
		p.AddThread(func(t *pctwm.Thread) {
			m.Lock(t)
			v := t.Load(sum, pctwm.NonAtomic)
			t.Store(sum, v+pctwm.Value(i+1), pctwm.NonAtomic)
			m.Unlock(t)
			t.FetchAdd(count, -1, pctwm.Relaxed) // BUG: should be AcqRel
		})
	}
	p.AddNamedThread("collector", func(t *pctwm.Thread) {
		for i := 0; i < 24; i++ {
			if t.Load(count, pctwm.Relaxed) == 0 { // BUG: should be Acquire
				total := t.Load(sum, pctwm.NonAtomic)
				t.Assert(total == 6, "collector saw partial sum %d", total)
				return
			}
		}
	})
	return p
}

func main() {
	opts := pctwm.Options{DetectRaces: true, StopOnBug: true}
	fail := func(o *pctwm.Outcome) bool { return o.Failed() }
	const rounds = 600

	for _, v := range []struct {
		label string
		prog  *pctwm.Program
	}{
		{"correct primitives (conc.Mutex + conc.WaitGroup)", buildCorrect()},
		{"hand-rolled relaxed wait group", buildBroken()},
	} {
		est := pctwm.Estimate(v.prog, opts)
		fmt.Printf("%s:\n", v.label)
		for _, newStrategy := range []func() pctwm.Strategy{
			func() pctwm.Strategy { return pctwm.NewRandomStrategy() },
			func() pctwm.Strategy { return pctwm.NewPCTWM(1, 1, est.KCom) },
		} {
			res := pctwm.RunTrials(v.prog, fail, newStrategy, rounds, 5, opts)
			fmt.Printf("  %-10s failures in %3d/%d rounds (%5.1f%%)\n",
				newStrategy().Name(), res.Hits, res.Runs, res.Rate())
		}
	}
	fmt.Println("\nthe conc primitives carry the release/acquire edges the collector")
	fmt.Println("needs; dropping them to relaxed lets PCTWM expose the stale sum")
	fmt.Println("(and the race detector flag the unsynchronized reads).")
}
