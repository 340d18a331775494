package engine_test

import (
	"reflect"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

// stripTiming zeroes the only non-deterministic Outcome field so outcomes
// can be compared with reflect.DeepEqual.
func stripTiming(o *engine.Outcome) *engine.Outcome {
	c := *o
	c.Duration = 0
	return &c
}

// runnerDeterminismPrograms picks two structurally different benchmarks: a
// spin-lock-style program (exercises RMWs, spins, OnSpin heuristics) and a
// queue (exercises Alloc, spawn/join, release sequences).
var runnerDeterminismPrograms = []string{"rwlock", "msqueue"}

// TestRunnerSeedDeterminism checks the Runner reuse contract: for a fixed
// program, strategy and seed, the Outcome (including the full Recording)
// is identical whether the Runner is fresh or has executed any number of
// prior runs with other seeds.
func TestRunnerSeedDeterminism(t *testing.T) {
	for _, name := range runnerDeterminismPrograms {
		t.Run(name, func(t *testing.T) {
			bench, err := benchprog.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			prog := bench.Program(0)
			opts := bench.Options()
			opts.Record = true
			opts.DetectRaces = true

			const seeds = 25

			// Reference: a fresh Runner (and a fresh strategy) per seed.
			fresh := make([]*engine.Outcome, seeds)
			for seed := 0; seed < seeds; seed++ {
				r := engine.NewRunner(prog, opts)
				fresh[seed] = stripTiming(r.Run(core.NewPCTWM(3, 2, 40), int64(seed)))
			}

			// One Runner and one strategy value reused across every seed.
			reused := engine.NewRunner(prog, opts)
			strat := core.NewPCTWM(3, 2, 40)
			for seed := 0; seed < seeds; seed++ {
				got := stripTiming(reused.Run(strat, int64(seed)))
				if !reflect.DeepEqual(got, fresh[seed]) {
					t.Fatalf("seed %d: reused-Runner outcome differs from fresh-Runner outcome\nreused: %+v\nfresh:  %+v",
						seed, got, fresh[seed])
				}
			}

			// Replaying a seed on a warm Runner reproduces it too (results
			// must not depend on the order seeds were executed in).
			for _, seed := range []int{0, seeds / 2, seeds - 1} {
				got := stripTiming(reused.Run(strat, int64(seed)))
				if !reflect.DeepEqual(got, fresh[seed]) {
					t.Fatalf("seed %d: replay on warm Runner differs", seed)
				}
			}
		})
	}
}

// TestRunnerMatchesOneShotRun checks that the legacy one-shot engine.Run
// produces the same outcomes as the Runner API.
func TestRunnerMatchesOneShotRun(t *testing.T) {
	bench, err := benchprog.ByName("rwlock")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Program(0)
	opts := bench.Options()
	opts.Record = true

	r := engine.NewRunner(prog, opts)
	for seed := int64(0); seed < 10; seed++ {
		oneShot := stripTiming(engine.Run(prog, core.NewPCTWM(3, 2, 40), seed, opts))
		pooled := stripTiming(r.Run(core.NewPCTWM(3, 2, 40), seed))
		if !reflect.DeepEqual(oneShot, pooled) {
			t.Fatalf("seed %d: one-shot Run and Runner.Run disagree", seed)
		}
	}
}

// TestRunnerOutcomeSurvivesReuse checks that a returned Outcome (including
// races and recording) does not alias Runner state: running again must not
// mutate an earlier result.
func TestRunnerOutcomeSurvivesReuse(t *testing.T) {
	bench, err := benchprog.ByName("msqueue")
	if err != nil {
		t.Fatal(err)
	}
	prog := bench.Program(0)
	opts := bench.Options()
	opts.Record = true
	opts.DetectRaces = true

	r := engine.NewRunner(prog, opts)
	strat := core.NewPCTWM(3, 2, 40)
	first := r.Run(strat, 1)
	snapshot := deepCopyOutcome(stripTiming(first))
	for seed := int64(2); seed < 12; seed++ {
		r.Run(strat, seed)
	}
	if !reflect.DeepEqual(stripTiming(first), snapshot) {
		t.Fatal("earlier Outcome mutated by later runs on the same Runner")
	}
}

// deepCopyOutcome clones o and every slice/map it references, so aliasing
// bugs between Outcomes and Runner internals become observable.
func deepCopyOutcome(o *engine.Outcome) *engine.Outcome {
	c := *o
	c.BugMessages = append([]string(nil), o.BugMessages...)
	c.Races = append(c.Races[:0:0], o.Races...)
	if o.FinalValues != nil {
		c.FinalValues = make(map[string]memmodel.Value, len(o.FinalValues))
		for k, v := range o.FinalValues {
			c.FinalValues[k] = v
		}
	}
	if o.Recording != nil {
		rec := *o.Recording
		rec.Events = append(rec.Events[:0:0], o.Recording.Events...)
		rec.SCOrder = append(rec.SCOrder[:0:0], o.Recording.SCOrder...)
		rec.SpawnLinks = append(rec.SpawnLinks[:0:0], o.Recording.SpawnLinks...)
		rec.JoinLinks = append(rec.JoinLinks[:0:0], o.Recording.JoinLinks...)
		if o.Recording.LocNames != nil {
			rec.LocNames = make(map[memmodel.Loc]string, len(o.Recording.LocNames))
			for k, v := range o.Recording.LocNames {
				rec.LocNames[k] = v
			}
		}
		c.Recording = &rec
	}
	return &c
}

// TestRecordingLocNames: the recorded runs of one Runner that allocate no
// locations share one LocNames map; a run that allocates gets a map of
// its own, naming its dynamic locations.
func TestRecordingLocNames(t *testing.T) {
	names := func(alloc bool) [2]map[memmodel.Loc]string {
		p := engine.NewProgram("names")
		x := p.Loc("X", 0)
		p.AddThread(func(th *engine.Thread) {
			if alloc {
				th.Alloc("obj", 1, 0)
			}
			th.Store(x, 1, memmodel.Relaxed)
		})
		r := engine.NewRunner(p, engine.Options{Record: true})
		defer r.Close()
		return [2]map[memmodel.Loc]string{r.Run(core.NewRandom(), 1).Recording.LocNames, r.Run(core.NewRandom(), 2).Recording.LocNames}
	}
	same := func(a, b map[memmodel.Loc]string) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}

	static := names(false)
	if !same(static[0], static[1]) || !reflect.DeepEqual(static[0], map[memmodel.Loc]string{1: "X"}) {
		t.Errorf("static runs: LocNames %v and %v, want one shared map {1: X}", static[0], static[1])
	}
	dynamic := names(true)
	if same(dynamic[0], dynamic[1]) || dynamic[0][2] == "" || !reflect.DeepEqual(dynamic[0], dynamic[1]) {
		t.Errorf("allocating runs: LocNames %v and %v, want two equal maps naming location 2", dynamic[0], dynamic[1])
	}
}

// TestRecordedRunAllocations: a recorded run allocates its event list on
// top of what an unrecorded run allocates, and nothing else when it has
// no SC events and no joins. Its Outcome, Recording and spawn links share
// one allocation, which replaces the unrecorded run's Outcome; its model
// is the Runner's.
func TestRecordedRunAllocations(t *testing.T) {
	lt := litmus.SBRelaxed()
	allocs := func(opts engine.Options) float64 {
		r := engine.NewRunner(lt.Program, opts)
		defer r.Close()
		strat := core.NewRandom()
		seed := int64(0)
		return testing.AllocsPerRun(200, func() {
			seed++
			r.Run(strat, seed)
		})
	}
	plain, recorded := allocs(engine.Options{}), allocs(engine.Options{Record: true})
	if recorded != plain+1 {
		t.Errorf("a recorded run allocates %v times, an unrecorded one %v: want one more, for the events", recorded, plain)
	}
	for _, model := range engine.Models() {
		o := engine.Run(lt.Program, core.NewRandom(), 1, engine.Options{Model: model, Record: true})
		if o.Recording.Model != model {
			t.Errorf("run under %s recorded model %q", model, o.Recording.Model)
		}
	}
}
