// Message passing: a walk-through of the paper's Program MP2 (§5.3), the
// three-thread relaxed message-passing chain whose bug needs exactly two
// communication relations, and of how fences repair it (Program MP1, §5.2).
package main

import (
	"fmt"

	"pctwm"
)

// buildMP2 is Program MP2: the assertion Y==1 ∧ X==0 fires only in an
// execution with two communication relations (Figure 4).
func buildMP2() *pctwm.Program {
	p := pctwm.NewProgram("mp2")
	x := p.Loc("X", 0)
	y := p.Loc("Y", 0)
	p.AddNamedThread("T1", func(t *pctwm.Thread) {
		t.Store(x, 1, pctwm.Relaxed)
	})
	p.AddNamedThread("T2", func(t *pctwm.Thread) {
		if t.Load(x, pctwm.Relaxed) == 1 {
			t.Store(y, 1, pctwm.Relaxed)
		}
	})
	p.AddNamedThread("T3", func(t *pctwm.Thread) {
		if t.Load(y, pctwm.Relaxed) == 1 {
			t.Assert(t.Load(x, pctwm.Relaxed) != 0, "Y==1 but X==0")
		}
	})
	return p
}

// buildMP1 is Program MP1: the same communication structure protected by
// a release fence before the flag store and an acquire fence after the
// flag load; the bad outcome is no longer reachable.
func buildMP1() *pctwm.Program {
	p := pctwm.NewProgram("mp1")
	x := p.Loc("X", 0)
	y := p.Loc("Y", 0)
	p.AddNamedThread("T1", func(t *pctwm.Thread) {
		t.Store(x, 1, pctwm.Relaxed)
		t.Fence(pctwm.Release)
		t.Store(y, 1, pctwm.Relaxed)
	})
	p.AddNamedThread("T2", func(t *pctwm.Thread) {
		if t.Load(y, pctwm.Relaxed) == 1 {
			t.Fence(pctwm.Acquire)
			t.Assert(t.Load(x, pctwm.Relaxed) == 1, "acquired Y==1 but X stale")
		}
	})
	return p
}

func main() {
	const rounds = 1000
	bug := func(o *pctwm.Outcome) bool { return o.BugHit }

	mp2 := buildMP2()
	est := pctwm.Estimate(mp2, pctwm.Options{})
	fmt.Printf("MP2: kcom=%d; the bug has depth d=2 (two reads must observe remote writes)\n", est.KCom)
	for d := 0; d <= 3; d++ {
		res := pctwm.RunTrials(mp2, bug, func() pctwm.Strategy {
			return pctwm.NewPCTWM(d, 1, est.KCom)
		}, rounds, 7, pctwm.Options{StopOnBug: true})
		fmt.Printf("  PCTWM d=%d: %5.1f%%  (theoretical lower bound %.4f)\n",
			d, res.Rate(), pctwm.PCTWMBound(est.KCom, d, 1))
	}

	mp1 := buildMP1()
	est1 := pctwm.Estimate(mp1, pctwm.Options{})
	res := pctwm.RunTrials(mp1, bug, func() pctwm.Strategy {
		return pctwm.NewPCTWM(2, 2, est1.KCom)
	}, rounds, 9, pctwm.Options{StopOnBug: true})
	fmt.Printf("\nMP1 (fence-synchronized): PCTWM d=2 finds %d violations in %d rounds\n", res.Hits, res.Runs)
	fmt.Println("the release/acquire fence pair makes the stale read inconsistent,")
	fmt.Println("so no strategy can produce it (see internal/litmus for the proof suite).")
}
