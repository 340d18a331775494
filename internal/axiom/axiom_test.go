package axiom

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

// checkRun executes prog once with recording and fails on any axiom
// violation.
func checkRun(t *testing.T, prog *engine.Program, s engine.Strategy, seed int64) *Graph {
	t.Helper()
	o := engine.Run(prog, s, seed, engine.Options{Record: true})
	g, err := FromRecording(o.Recording)
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	for _, v := range g.Check() {
		t.Errorf("%s (seed %d)", v, seed)
	}
	return g
}

// TestLitmusExecutionsConsistent records executions of the whole litmus
// suite under all three strategies and checks the §4 axioms on each.
func TestLitmusExecutionsConsistent(t *testing.T) {
	for _, lt := range litmus.Suite() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			for seed := int64(0); seed < 50; seed++ {
				checkRun(t, lt.Program, core.NewRandom(), seed)
				checkRun(t, lt.Program, core.NewPCT(2, 15), seed)
				checkRun(t, lt.Program, core.NewPCTWM(2, 2, 8), seed)
			}
		})
	}
}

// randomProgram builds a random program: nThreads threads performing a
// random mix of loads, stores, RMWs and fences over nLocs locations with
// random memory orders. Every execution of any such program must satisfy
// the consistency axioms.
func randomProgram(r *rand.Rand, nThreads, nLocs, nOps int) *engine.Program {
	p := engine.NewProgram("random")
	locs := make([]memmodel.Loc, nLocs)
	for i := range locs {
		locs[i] = p.Loc(string(rune('A'+i)), memmodel.Value(i))
	}
	atomicOrds := []memmodel.Order{
		memmodel.Relaxed, memmodel.Acquire, memmodel.Release,
		memmodel.AcqRel, memmodel.SeqCst,
	}
	fenceOrds := []memmodel.Order{
		memmodel.Acquire, memmodel.Release, memmodel.AcqRel, memmodel.SeqCst,
	}
	for ti := 0; ti < nThreads; ti++ {
		// Pre-generate the op sequence so the ThreadFunc is deterministic.
		type op struct {
			kind int
			loc  memmodel.Loc
			ord  memmodel.Order
			val  memmodel.Value
		}
		ops := make([]op, nOps)
		for i := range ops {
			ops[i] = op{
				kind: r.Intn(6),
				loc:  locs[r.Intn(len(locs))],
				ord:  atomicOrds[r.Intn(len(atomicOrds))],
				val:  memmodel.Value(r.Intn(100)),
			}
			if ops[i].kind == 4 {
				ops[i].ord = fenceOrds[r.Intn(len(fenceOrds))]
			}
		}
		p.AddThread(func(t *engine.Thread) {
			for _, o := range ops {
				switch o.kind {
				case 0:
					t.Load(o.loc, o.ord)
				case 1:
					t.Store(o.loc, o.val, o.ord)
				case 2:
					t.FetchAdd(o.loc, 1, o.ord)
				case 3:
					t.CAS(o.loc, o.val, o.val+1, o.ord, memmodel.Relaxed)
				case 4:
					t.Fence(o.ord)
				case 5:
					t.Exchange(o.loc, o.val, o.ord)
				}
			}
		})
	}
	return p
}

// TestRandomProgramsConsistent is a property-based test: arbitrary
// programs under arbitrary strategies yield only axiom-consistent
// executions.
func TestRandomProgramsConsistent(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64, strategyPick uint8, dh uint8) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randomProgram(r, 2+r.Intn(3), 2+r.Intn(3), 3+r.Intn(8))
		var s engine.Strategy
		switch strategyPick % 3 {
		case 0:
			s = core.NewRandom()
		case 1:
			s = core.NewPCT(1+int(dh%4), 30)
		default:
			s = core.NewPCTWM(int(dh%4), 1+int(dh%3), 20)
		}
		o := engine.Run(prog, s, seed, engine.Options{Record: true})
		g, err := FromRecording(o.Recording)
		if err != nil {
			t.Logf("graph: %v", err)
			return false
		}
		if vs := g.Check(); len(vs) > 0 {
			for _, v := range vs {
				t.Logf("seed %d: %s", seed, v)
			}
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHBBasics sanity-checks the derived happens-before relation on a
// fence-synchronized message-passing execution.
func TestHBBasics(t *testing.T) {
	lt := litmus.MPFences()
	for seed := int64(0); seed < 200; seed++ {
		o := engine.Run(lt.Program, core.NewRandom(), seed, engine.Options{Record: true})
		g, err := FromRecording(o.Recording)
		if err != nil {
			t.Fatal(err)
		}
		if vs := g.Check(); len(vs) > 0 {
			t.Fatalf("seed %d: %v", seed, vs)
		}
		// If the flag load read the flag store, the release fence must
		// happen-before the acquire fence.
		var flagStore, flagLoad, relFence, acqFence memmodel.EventID = -1, -1, -1, -1
		for _, ev := range g.Events {
			switch {
			case ev.Label.Kind == memmodel.KindWrite && ev.Label.Loc == 2 && ev.TID == 1:
				flagStore = ev.ID
			case ev.Label.Kind == memmodel.KindRead && ev.Label.Loc == 2 && ev.TID == 2:
				flagLoad = ev.ID
			case ev.Label.Kind == memmodel.KindFence && ev.TID == 1:
				relFence = ev.ID
			case ev.Label.Kind == memmodel.KindFence && ev.TID == 2:
				acqFence = ev.ID
			}
		}
		if flagLoad == -1 || flagStore == -1 {
			t.Fatalf("seed %d: flag events not found", seed)
		}
		if g.Events[flagLoad].ReadsFrom == flagStore {
			if !g.HB(relFence, acqFence) {
				t.Fatalf("seed %d: fence sw missing from hb", seed)
			}
		}
	}
}

// TestRecheckAllocations: a graph built from an engine recording takes
// three allocations: the Graph, its id array and its offset array. The
// sc and tso checks take their scratch in one allocation; the rc11 check
// takes one for its scratch and one for the hb matrix it derives, on an
// execution without sw edges.
func TestRecheckAllocations(t *testing.T) {
	lt := litmus.SBRelaxed()
	for _, model := range engine.Models() {
		rec := engine.Run(lt.Program, core.NewRandom(), 1, engine.Options{Model: model, Record: true}).Recording
		build := testing.AllocsPerRun(50, func() {
			if _, err := FromRecording(rec); err != nil {
				t.Fatal(err)
			}
		})
		check := testing.AllocsPerRun(50, func() {
			g, _ := FromRecording(rec)
			if vs := g.CheckModel(model); len(vs) > 0 {
				t.Fatal(vs)
			}
		}) - build
		want := 1.0
		if model == engine.ModelRC11 {
			want = 2
		}
		if build != 3 || check != want {
			t.Errorf("%s: building allocates %v times and checking %v, want 3 and %v", model, build, check, want)
		}
	}
}

// TestGraphConcurrentReaders: a Graph is safe for concurrent readers.
// Goroutines that check, query hb and sw and render one graph at once
// all see the answers of a graph used by one goroutine.
func TestGraphConcurrentReaders(t *testing.T) {
	b, err := benchprog.ByName("mcslock")
	if err != nil {
		t.Fatal(err)
	}
	opts := b.Options()
	opts.Record = true
	rec := engine.Run(b.Program(0), core.NewPCTWM(b.Depth, 1, 20), 1, opts).Recording
	answers := func(g *Graph) string {
		var sb strings.Builder
		fmt.Fprintln(&sb, g.Check(), g.CheckSC(), g.CheckTSO(), g.SW())
		for a := range g.Events {
			for b := range g.Events {
				if g.HB(memmodel.EventID(a), memmodel.EventID(b)) {
					fmt.Fprintf(&sb, "%d<%d ", a, b)
				}
			}
		}
		if err := g.WriteText(&sb, nil); err != nil {
			t.Error(err)
		}
		return sb.String()
	}
	ref, err := FromRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	want := answers(ref)
	if len(ref.SW()) == 0 {
		t.Fatal("the execution has no sw edges to derive")
	}
	g, err := FromRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]string, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = answers(g)
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s != want {
			t.Errorf("reader %d saw different answers", i)
		}
	}
}
