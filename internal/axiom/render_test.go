package axiom

import (
	"fmt"
	"strings"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

func renderGraph(t *testing.T) *Graph {
	t.Helper()
	lt := litmus.MPFences()
	o := engine.Run(lt.Program, core.NewRandom(), 3, engine.Options{Record: true})
	g, err := FromRecording(o.Recording)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWriteText(t *testing.T) {
	g := renderGraph(t)
	var b strings.Builder
	if err := g.WriteText(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"init:", "thread 1:", "thread 2:", "mo:", "F[rel]", "F[acq]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in rendering:\n%s", want, out)
		}
	}
}

func TestWriteDot(t *testing.T) {
	g := renderGraph(t)
	var b strings.Builder
	if err := g.WriteDot(&b, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph execution", "subgraph cluster_t1", "label=\"rf\"", "style=bold"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in DOT output:\n%s", want, out)
		}
	}
}

// TestWriteDotDeterministic: rendering the same graph again gives the
// same DOT text; mo edges come out in location order, not map order.
func TestWriteDotDeterministic(t *testing.T) {
	g := renderGraph(t)
	var first strings.Builder
	if err := g.WriteDot(&first, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := g.WriteDot(&b, nil); err != nil {
			t.Fatal(err)
		}
		if b.String() != first.String() {
			t.Fatalf("render %d differs from the first:\n%s\n--- first ---\n%s", i, b.String(), first.String())
		}
	}
}

// TestCheckDeterministic: checking the same graph again lists the same
// violations in the same order; wf-po and the po edges of the SC check
// come out in thread order, not map order.
func TestCheckDeterministic(t *testing.T) {
	// Six threads, each recording its po index 2 before its index 1: every
	// thread has two wf-po violations and one backward po edge.
	fence := memmodel.Label{Kind: memmodel.KindFence, Order: memmodel.Acquire}
	var evs []memmodel.Event
	for tid := memmodel.ThreadID(1); tid <= 6; tid++ {
		evs = append(evs, ev(tid, 2, fence, 0, memmodel.NoEvent), ev(tid, 1, fence, 0, memmodel.NoEvent))
	}
	g, err := FromRecording(rec(evs...))
	if err != nil {
		t.Fatal(err)
	}
	first := fmt.Sprint(g.Check())
	for i := 0; i < 50; i++ {
		if got := fmt.Sprint(g.Check()); got != first {
			t.Fatalf("check %d lists violations differently:\n%s\n--- first ---\n%s", i, got, first)
		}
	}
}
