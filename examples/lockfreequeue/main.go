// Lock-free queue: build a Michael-Scott queue against the atomics API,
// first with a seeded relaxed-publication bug and then with the correct
// release/acquire orders, and compare what the testers find. This is the
// workload class the paper's msqueue benchmark covers (Table 1, d=0).
package main

import (
	"fmt"

	"pctwm"
)

// queue is a Michael-Scott queue over engine locations. Nodes are
// allocated dynamically: two cells, value and next (0 = nil).
type queue struct {
	head, tail pctwm.Loc
	// pubOrder is the publication order of the link CAS; the seeded bug
	// uses Relaxed where the correct algorithm needs Release.
	pubOrder pctwm.MemoryOrder
	// walkOrder is the order of pointer loads; correct: Acquire.
	walkOrder pctwm.MemoryOrder
}

func (q *queue) enqueue(t *pctwm.Thread, v pctwm.Value) {
	node := t.Alloc("node", 2)
	t.Store(node, v, pctwm.NonAtomic) // payload before publication
	t.Store(node+1, 0, pctwm.Relaxed)
	for i := 0; i < 8; i++ {
		last := pctwm.Loc(t.Load(q.tail, q.walkOrder))
		next := t.Load(last+1, q.walkOrder)
		if next == 0 {
			if _, ok := t.CAS(last+1, 0, pctwm.Value(node), q.pubOrder, q.walkOrder); ok {
				t.CAS(q.tail, pctwm.Value(last), pctwm.Value(node), q.pubOrder, q.walkOrder)
				return
			}
		} else {
			t.CAS(q.tail, pctwm.Value(last), next, q.pubOrder, q.walkOrder)
		}
	}
}

func (q *queue) dequeue(t *pctwm.Thread) pctwm.Value {
	for i := 0; i < 8; i++ {
		first := pctwm.Loc(t.Load(q.head, q.walkOrder))
		last := pctwm.Loc(t.Load(q.tail, q.walkOrder))
		next := t.Load(first+1, q.walkOrder)
		if first == last {
			if next == 0 {
				return 0
			}
			t.CAS(q.tail, pctwm.Value(last), next, q.pubOrder, q.walkOrder)
			continue
		}
		if next == 0 {
			continue
		}
		if _, ok := t.CAS(q.head, pctwm.Value(first), next, q.pubOrder, q.walkOrder); ok {
			return t.Load(pctwm.Loc(next), pctwm.NonAtomic)
		}
	}
	return 0
}

func build(name string, pub, walk pctwm.MemoryOrder) *pctwm.Program {
	p := pctwm.NewProgram(name)
	// Static dummy node so the empty queue is in every thread's initial view.
	dummy := p.Loc("dummy.val", 0)
	p.Loc("dummy.next", 0)
	q := &queue{
		head:     p.Loc("head", pctwm.Value(dummy)),
		tail:     p.Loc("tail", pctwm.Value(dummy)),
		pubOrder: pub, walkOrder: walk,
	}
	p.AddNamedThread("producer1", func(t *pctwm.Thread) { q.enqueue(t, 101) })
	p.AddNamedThread("producer2", func(t *pctwm.Thread) { q.enqueue(t, 102) })
	p.AddNamedThread("consumer", func(t *pctwm.Thread) {
		q.dequeue(t)
		q.dequeue(t)
	})
	return p
}

func main() {
	const rounds = 500
	detect := func(o *pctwm.Outcome) bool { return o.Failed() } // races count

	opts := pctwm.Options{DetectRaces: true, StopOnBug: true}
	for _, v := range []struct {
		label      string
		pub, walk  pctwm.MemoryOrder
		expectBugs bool
	}{
		{"seeded bug (relaxed publication)", pctwm.Relaxed, pctwm.Relaxed, true},
		{"correct (release/acquire)", pctwm.Release, pctwm.Acquire, false},
	} {
		p := build("msqueue-"+v.label, v.pub, v.walk)
		est := pctwm.Estimate(p, opts)
		fmt.Printf("%s:\n", v.label)
		for _, newStrategy := range []func() pctwm.Strategy{
			func() pctwm.Strategy { return pctwm.NewRandomStrategy() },
			func() pctwm.Strategy { return pctwm.NewPCTWM(0, 1, est.KCom) },
		} {
			res := pctwm.RunTrials(p, detect, newStrategy, rounds, 11, opts)
			fmt.Printf("  %-10s data races / safety violations in %3d/%d rounds (%5.1f%%)\n",
				newStrategy().Name(), res.Hits, res.Runs, res.Rate())
		}
	}
	fmt.Println("\nthe relaxed-publication queue races on every execution in which a")
	fmt.Println("thread walks to a node another thread allocated — no strategy-chosen")
	fmt.Println("communication is needed, which is why the paper lists msqueue at d=0.")
}
