package axiom

import (
	"fmt"
	"io"
	"sort"

	"pctwm/internal/memmodel"
)

// WriteText renders the execution as a per-thread event listing followed
// by the cross-thread relations (rf, sw, mo, SC) — the textual analogue
// of the paper's execution-graph figures.
func (g *Graph) WriteText(w io.Writer, locName func(memmodel.Loc) string) error {
	if locName == nil {
		locName = func(l memmodel.Loc) string { return fmt.Sprintf("x%d", l) }
	}
	tids := make([]memmodel.ThreadID, 0, len(g.byThread))
	for tid := range g.byThread {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })

	for _, tid := range tids {
		if tid == memmodel.InitThread {
			fmt.Fprintf(w, "init:\n")
		} else {
			fmt.Fprintf(w, "thread %d:\n", tid)
		}
		for _, id := range g.byThread[tid] {
			ev := g.Events[id]
			fmt.Fprintf(w, "  e%-3d %s", ev.ID, labelText(ev.Label, locName))
			if ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
				fmt.Fprintf(w, "   [rf <- e%d]", ev.ReadsFrom)
			}
			fmt.Fprintln(w)
		}
	}

	if len(g.sw) > 0 {
		fmt.Fprintln(w, "sw:")
		for _, e := range g.sw {
			fmt.Fprintf(w, "  e%d -> e%d\n", e[0], e[1])
		}
	}
	fmt.Fprintln(w, "mo:")
	for _, loc := range g.locs {
		fmt.Fprintf(w, "  %s:", locName(loc))
		for _, id := range g.moByLoc[loc] {
			fmt.Fprintf(w, " e%d", id)
		}
		fmt.Fprintln(w)
	}
	if len(g.scOrder) > 0 {
		fmt.Fprint(w, "SC:")
		for _, id := range g.scOrder {
			fmt.Fprintf(w, " e%d", id)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteDot renders the execution graph in Graphviz DOT format: one
// cluster per thread with po edges, plus rf (green), sw (blue), mo
// (dashed) and SC (dotted) edges.
func (g *Graph) WriteDot(w io.Writer, locName func(memmodel.Loc) string) error {
	if locName == nil {
		locName = func(l memmodel.Loc) string { return fmt.Sprintf("x%d", l) }
	}
	fmt.Fprintln(w, "digraph execution {")
	fmt.Fprintln(w, "  rankdir=TB; node [shape=box, fontname=\"monospace\"];")

	tids := make([]memmodel.ThreadID, 0, len(g.byThread))
	for tid := range g.byThread {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		fmt.Fprintf(w, "  subgraph cluster_t%d {\n    label=\"thread %d\";\n", tid, tid)
		ids := g.byThread[tid]
		for _, id := range ids {
			ev := g.Events[id]
			fmt.Fprintf(w, "    e%d [label=\"e%d: %s\"];\n", id, id, labelText(ev.Label, locName))
		}
		for i := 1; i < len(ids); i++ {
			fmt.Fprintf(w, "    e%d -> e%d [style=bold];\n", ids[i-1], ids[i])
		}
		fmt.Fprintln(w, "  }")
	}
	for _, ev := range g.Events {
		if ev.Label.Kind.Reads() && ev.ReadsFrom != memmodel.NoEvent {
			fmt.Fprintf(w, "  e%d -> e%d [color=green, label=\"rf\"];\n", ev.ReadsFrom, ev.ID)
		}
	}
	for _, e := range g.sw {
		fmt.Fprintf(w, "  e%d -> e%d [color=blue, label=\"sw\"];\n", e[0], e[1])
	}
	for _, loc := range g.locs {
		ids := g.moByLoc[loc]
		for i := 1; i < len(ids); i++ {
			fmt.Fprintf(w, "  e%d -> e%d [style=dashed, color=gray, label=\"mo\"];\n", ids[i-1], ids[i])
		}
	}
	for i := 1; i < len(g.scOrder); i++ {
		fmt.Fprintf(w, "  e%d -> e%d [style=dotted, color=red, label=\"SC\"];\n", g.scOrder[i-1], g.scOrder[i])
	}
	fmt.Fprintln(w, "}")
	return nil
}

func labelText(l memmodel.Label, locName func(memmodel.Loc) string) string {
	switch l.Kind {
	case memmodel.KindRead:
		return fmt.Sprintf("R[%s](%s)=%d", l.Order, locName(l.Loc), l.RVal)
	case memmodel.KindWrite:
		return fmt.Sprintf("W[%s](%s)=%d", l.Order, locName(l.Loc), l.WVal)
	case memmodel.KindRMW:
		return fmt.Sprintf("U[%s](%s)%d->%d", l.Order, locName(l.Loc), l.RVal, l.WVal)
	case memmodel.KindFence:
		return fmt.Sprintf("F[%s]", l.Order)
	default:
		return l.Kind.String()
	}
}
