package axiom

import (
	"strings"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
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
