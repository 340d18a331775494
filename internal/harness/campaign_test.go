package harness

import (
	"context"
	"math/rand"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
)

// panickyStrategy panics in Begin for a deterministic, seed-dependent
// subset of runs (roughly 1/rate of them) — a model of a buggy strategy
// whose panic escapes the engine into the harness.
type panickyStrategy struct {
	inner engine.Strategy
	rate  int
}

func newPanicky(rate int) engine.Strategy {
	return &panickyStrategy{inner: core.NewRandom(), rate: rate}
}

func (s *panickyStrategy) Name() string { return "panicky" }
func (s *panickyStrategy) Begin(info engine.ProgramInfo, rng *rand.Rand) {
	doomed := rng.Intn(s.rate) == 0
	s.inner.Begin(info, rng)
	if doomed {
		panic("strategy bug")
	}
}
func (s *panickyStrategy) NextThread(en []engine.PendingOp) memmodel.ThreadID {
	return s.inner.NextThread(en)
}
func (s *panickyStrategy) PickRead(rc engine.ReadContext) int { return s.inner.PickRead(rc) }
func (s *panickyStrategy) OnEvent(ev *memmodel.Event)         { s.inner.OnEvent(ev) }
func (s *panickyStrategy) OnThreadStart(t, p memmodel.ThreadID) {
	s.inner.OnThreadStart(t, p)
}
func (s *panickyStrategy) OnSpin(t memmodel.ThreadID) { s.inner.OnSpin(t) }

// TestCampaignPanicQuarantine: a strategy panic is recovered at the trial
// boundary, counted, and the worker keeps draining rounds on a fresh
// Runner — with identical counts for every worker count (the panics are a
// deterministic function of the seed).
func TestCampaignPanicQuarantine(t *testing.T) {
	b, err := benchprog.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Program(0)
	opts := b.Options()
	const runs = 60
	newStrategy := func() engine.Strategy { return newPanicky(4) }

	serial := RunCampaign(prog, b.Detect, newStrategy, runs, 7, opts, Campaign{Workers: 1})
	if serial.Panics == 0 {
		t.Fatalf("no panics triggered; panicky strategy too tame: %+v", serial)
	}
	if serial.Runs != runs {
		t.Fatalf("panics aborted the campaign: %d/%d rounds ran", serial.Runs, runs)
	}
	if serial.TotalEvents == 0 {
		t.Fatalf("no events counted — quarantine poisoned the surviving rounds")
	}
	par := RunCampaign(prog, b.Detect, newStrategy, runs, 7, opts, Campaign{Workers: 4})
	if par.Runs != serial.Runs || par.Panics != serial.Panics ||
		par.Hits != serial.Hits || par.TotalEvents != serial.TotalEvents {
		t.Fatalf("parallel campaign diverges from serial:\n  parallel %+v\n  serial   %+v", par, serial)
	}
}

// TestRunLitmusPanicFails: a litmus campaign whose strategy panics on
// some seeds fails its conformance report, though the other trials show
// every weak outcome and nothing illegal, at every worker count.
func TestRunLitmusPanicFails(t *testing.T) {
	lt := litmus.SBRelaxed()
	newStrategy := func() engine.Strategy { return newPanicky(4) }
	serial, res := RunLitmus(lt, newStrategy, 200, 1, engine.Options{}, Campaign{Workers: 1})
	if res.Panics == 0 || serial.Panics != res.Panics {
		t.Fatalf("report counts %d panic(s), campaign %d: %s", serial.Panics, res.Panics, serial)
	}
	if len(serial.Illegal) > 0 || len(serial.Missing) > 0 {
		t.Fatalf("surviving trials do not conform: %s", serial)
	}
	if serial.OK() || !strings.Contains(serial.String(), "PANICS=") {
		t.Fatalf("quarantined panics pass the report: %s", serial)
	}
	if par, _ := RunLitmus(lt, newStrategy, 200, 1, engine.Options{}, Campaign{Workers: 4}); par.String() != serial.String() {
		t.Fatalf("report differs between 1 and 4 workers:\n  %s\n  %s", serial, par)
	}
}

// lateBugStrategy wraps Random and, on the runs whose Begin-time draw
// Intn(4) is 0 (doomed), panics at its third NextThread when armed: a
// strategy bug raised inside a decision, after the run has started.
// Unarmed, it makes the same draws and runs the same schedules.
type lateBugStrategy struct {
	engine.Strategy
	armed, doomed bool
	decisions     int
}

func (s *lateBugStrategy) Begin(info engine.ProgramInfo, rng *rand.Rand) {
	s.doomed, s.decisions = info.Rand.Intn(4) == 0, 0
	s.Strategy.Begin(info, rng)
}
func (s *lateBugStrategy) NextThread(en []engine.PendingOp) memmodel.ThreadID {
	if s.decisions++; s.armed && s.doomed && s.decisions == 3 {
		panic("strategy bug")
	}
	return s.Strategy.NextThread(en)
}

// TestStrategyBugIsNotAProgramBug: a strategy panic inside a decision
// escapes the engine, so the campaign counts it in Panics and never as
// the program's bug, at any worker count, and a captured one is a
// deterministic harness-panic bundle whose stack names the strategy's
// frame. The other trials run the schedules they run without the bug.
// Dekker runs without and with extra writes, which its first thread
// performs in a deferred call.
func TestStrategyBugIsNotAProgramBug(t *testing.T) {
	b, err := benchprog.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range []int{0, 2} {
		prog, opts := b.Program(extra), b.Options()
		const runs, seed = 400, 1
		doomed := map[int64]bool{}
		wantPanics, wantHits := 0, 0
		r := engine.NewRunner(prog, opts)
		for i := int64(0); i < runs; i++ {
			s := &lateBugStrategy{Strategy: core.NewRandom()}
			hit := b.Detect(r.Run(s, seed+i))
			doomed[seed+i] = s.doomed
			if s.doomed {
				wantPanics++
			} else if hit {
				wantHits++
			}
		}
		r.Close()
		newStrategy := func() engine.Strategy { return &lateBugStrategy{Strategy: core.NewRandom(), armed: true} }
		for _, workers := range []int{1, 4} {
			res := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, Campaign{Workers: workers})
			if res.Runs != runs || res.Panics != wantPanics || res.Hits != wantHits {
				t.Errorf("%d extra writes, %d workers: %d runs, %d panics, %d hits: want %d, %d and %d",
					extra, workers, res.Runs, res.Panics, res.Hits, runs, wantPanics, wantHits)
			}
		}

		res := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts,
			Campaign{Workers: 1, ReproDir: t.TempDir(), MaxRepros: 10})
		captured := 0
		for _, f := range res.Failures {
			if !doomed[f.Seed] {
				continue
			}
			captured++
			if f.Kind != "harness-panic" || f.Triage != replay.TriageDeterministic {
				t.Errorf("%d extra writes: seed %d's strategy panic captured as %s (triage %s), want a DETERMINISTIC harness-panic",
					extra, f.Seed, f.Kind, f.Triage)
			}
			if bundle, err := replay.LoadBundle(f.BundlePath); err != nil {
				t.Error(err)
			} else if !strings.Contains(bundle.Stack, "lateBugStrategy") {
				t.Errorf("%d extra writes: seed %d's bundle stack does not name the strategy:\n%s", extra, f.Seed, bundle.Stack)
			}
		}
		if captured == 0 {
			t.Fatalf("%d extra writes: no strategy panic among the %d captured failures", extra, len(res.Failures))
		}
	}
}

// panickyProgram panics inside a ThreadFunc when the load observes the
// sibling's store — a user-program crash that only some schedules reach.
// The engine contains it as a PanicError outcome.
func panickyProgram() *engine.Program {
	p := engine.NewProgram("panicky-prog")
	l := p.Loc("L", 0)
	p.AddThread(func(th *engine.Thread) { th.Store(l, 1, memmodel.Relaxed) })
	p.AddThread(func(th *engine.Thread) {
		if th.Load(l, memmodel.Relaxed) == 1 {
			panic("program op exploded")
		}
	})
	return p
}

// TestCampaignPanickingProgramIsolated: a panicking program operation in
// one worker's trial is contained by the engine (no harness panic), does
// not poison sibling workers' trials, and produces a deterministic repro
// bundle that replays to the identical outcome.
func TestCampaignPanickingProgramIsolated(t *testing.T) {
	prog := panickyProgram()
	opts := engine.Options{}
	detect := func(*engine.Outcome) bool { return false }
	newStrategy := func() engine.Strategy { return core.NewRandom() }
	const runs = 200

	serial := RunCampaign(prog, detect, newStrategy, runs, 3, opts, Campaign{Workers: 1})
	dir := t.TempDir()
	par := RunCampaign(prog, detect, newStrategy, runs, 3, opts,
		Campaign{Workers: 4, ReproDir: dir, MaxRepros: 2})

	if par.Panics != 0 {
		t.Fatalf("ThreadFunc panic escaped the engine into the harness: %+v", par)
	}
	if par.Runs != runs {
		t.Fatalf("program panics aborted the pool: %d/%d rounds ran", par.Runs, runs)
	}
	if par.Runs != serial.Runs || par.TotalEvents != serial.TotalEvents || par.Hits != serial.Hits {
		t.Fatalf("panicking trials poisoned siblings — parallel diverges from serial:\n  parallel %+v\n  serial   %+v", par, serial)
	}
	if len(par.Failures) == 0 {
		t.Fatalf("no failures captured; expected panic bundles in %s", dir)
	}
	for _, f := range par.Failures {
		if f.Kind != "panic" {
			t.Fatalf("failure kind %q, want \"panic\": %+v", f.Kind, f)
		}
		if f.Triage != replay.TriageDeterministic {
			t.Fatalf("panic triage %q, want DETERMINISTIC: %+v", f.Triage, f)
		}
		if f.BundlePath == "" {
			t.Fatalf("no bundle written: %+v", f)
		}
		bundle, err := replay.LoadBundle(f.BundlePath)
		if err != nil {
			t.Fatal(err)
		}
		vr, err := bundle.Verify(prog)
		if err != nil {
			t.Fatal(err)
		}
		if !vr.Match {
			t.Fatalf("panic bundle does not replay: derails=%d diffs=%v", vr.Derails, vr.Diffs)
		}
	}
}

// TestCampaignCancelPreCanceled: an already-canceled context stops the
// campaign before any round runs.
func TestCampaignCancelPreCanceled(t *testing.T) {
	b, _ := benchprog.ByName("dekker")
	prog := b.Program(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewRandom() },
		50, 1, b.Options(), Campaign{Workers: 2, Context: ctx})
	if res.Runs != 0 {
		t.Fatalf("pre-canceled campaign ran %d rounds", res.Runs)
	}
	if !res.Interrupted {
		t.Fatalf("result not marked interrupted: %+v", res)
	}
}

// TestCampaignCancelMidRun: canceling the campaign context mid-batch
// returns promptly with a partial, interrupted result — in-flight runs are
// aborted by the engine's step-loop watchdog rather than waited out.
func TestCampaignCancelMidRun(t *testing.T) {
	b, _ := benchprog.ByName("msqueue")
	prog := b.Program(0)
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(30*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewRandom() },
		1<<30, 1, b.Options(), Campaign{Workers: 2, Context: ctx})
	elapsed := time.Since(start)
	if !res.Interrupted {
		t.Fatalf("result not marked interrupted: %+v", res)
	}
	if res.Runs == 0 {
		t.Fatalf("campaign ran no rounds before the cancel landed")
	}
	if res.Runs >= 1<<30 {
		t.Fatalf("campaign claims to have finished %d rounds", res.Runs)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancel did not abort the campaign promptly: took %v", elapsed)
	}
}

// cancelingStrategy is a strategy that cancels its campaign at the first
// decision of the run numbered at (counting from 0).
type cancelingStrategy struct {
	engine.Strategy
	cancel   context.CancelFunc
	at, runs int
}

func (s *cancelingStrategy) Begin(info engine.ProgramInfo, rng *rand.Rand) {
	s.runs++
	s.Strategy.Begin(info, rng)
}

func (s *cancelingStrategy) NextThread(en []engine.PendingOp) memmodel.ThreadID {
	if s.runs > s.at {
		s.cancel()
	}
	return s.Strategy.NextThread(en)
}

// TestCampaignCanceledTrialIsNotARun: a trial that the campaign's cancel
// cuts short counts only in Canceled. It is not in Runs, TotalEvents or
// Elapsed, it is not classified, and a metrics hub counts it as a cancel,
// not a trial. Dekker's 100 extra writes keep round 5 running past the
// engine's first cancellation poll after its first decision.
func TestCampaignCanceledTrialIsNotARun(t *testing.T) {
	b, err := benchprog.ByName("dekker")
	if err != nil {
		t.Fatal(err)
	}
	prog, opts := b.Program(100), b.Options()
	const seed, at = 1, 5
	r := engine.NewRunner(prog, opts)
	wantEvents := 0
	for i := int64(0); i < at; i++ {
		wantEvents += r.Run(core.NewRandom(), seed+i).Events
	}
	r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	detects := 0
	detect := func(o *engine.Outcome) bool { detects++; return b.Detect(o) }
	newStrategy := func() engine.Strategy {
		return &cancelingStrategy{Strategy: core.NewRandom(), cancel: cancel, at: at}
	}
	var m telemetry.Metrics
	res := RunCampaign(prog, detect, newStrategy, 10, seed, opts, Campaign{Workers: 1, Context: ctx, Metrics: &m})
	if res.Runs != at || res.Canceled != 1 || !res.Interrupted || detects != at || res.TotalEvents != wantEvents {
		t.Fatalf("%d runs, %d canceled, interrupted %v, %d detect calls, %d events: want %d, 1, true, %d and %d",
			res.Runs, res.Canceled, res.Interrupted, detects, res.TotalEvents, at, at, wantEvents)
	}
	if s := m.SnapshotAt(time.Now()); s.Trials != at || s.Cancels != 1 || s.Events != uint64(wantEvents) {
		t.Fatalf("hub: %d trials, %d cancels, %d events: want %d, 1 and %d", s.Trials, s.Cancels, s.Events, at, wantEvents)
	}
}

// counterStrategy deliberately violates the strategy determinism contract:
// its schedule depends on a global run counter instead of the engine's
// seeded rng, so re-running the same seed yields a different execution.
type counterStrategy struct {
	n *atomic.Int64
	k int64
}

func (s *counterStrategy) Name() string { return "counter" }
func (s *counterStrategy) Begin(engine.ProgramInfo, *rand.Rand) {
	s.k = s.n.Add(1)
}
func (s *counterStrategy) NextThread(en []engine.PendingOp) memmodel.ThreadID {
	return en[int(s.k)%len(en)].TID
}
func (s *counterStrategy) PickRead(rc engine.ReadContext) int {
	return int(s.k) % len(rc.Candidates)
}
func (s *counterStrategy) OnEvent(*memmodel.Event)              {}
func (s *counterStrategy) OnThreadStart(_, _ memmodel.ThreadID) {}
func (s *counterStrategy) OnSpin(memmodel.ThreadID)             {}

// interleaveProgram's final L value uniquely encodes the interleaving of
// nine seq-cst read-modify-write rounds across three threads, so any two
// different schedules end in different final states.
func interleaveProgram() *engine.Program {
	p := engine.NewProgram("interleave")
	l := p.Loc("L", 0)
	for id := 1; id <= 3; id++ {
		id := memmodel.Value(id)
		p.AddThread(func(th *engine.Thread) {
			for j := 0; j < 3; j++ {
				v := th.Load(l, memmodel.SeqCst)
				th.Store(l, v*4+id, memmodel.SeqCst)
			}
		})
	}
	return p
}

// TestCampaignFlakeTriageNondeterministic: when the triage re-run of a
// failing seed diverges from the original outcome, the failure is flagged
// NONDETERMINISTIC — the signal that the strategy (or engine) broke the
// determinism contract.
func TestCampaignFlakeTriageNondeterministic(t *testing.T) {
	prog := interleaveProgram()
	var n atomic.Int64
	newStrategy := func() engine.Strategy { return &counterStrategy{n: &n} }
	detect := func(o *engine.Outcome) bool { return o.Err == nil } // every clean run "fails"

	dir := t.TempDir()
	res := RunCampaign(prog, detect, newStrategy, 1, 42, engine.Options{},
		Campaign{Workers: 1, ReproDir: dir, MaxRepros: 1})
	if len(res.Failures) != 1 {
		t.Fatalf("captured %d failures, want 1: %+v", len(res.Failures), res)
	}
	f := res.Failures[0]
	if f.Triage != replay.TriageNondeterministic {
		t.Fatalf("triage %q, want NONDETERMINISTIC: %+v", f.Triage, f)
	}
	if res.Nondeterministic != 1 {
		t.Fatalf("Nondeterministic count %d, want 1", res.Nondeterministic)
	}
	if !strings.Contains(f.Msg, "rerun diverged") {
		t.Fatalf("failure message does not explain the divergence: %q", f.Msg)
	}
}

// TestCampaignBundleRoundTrip: failing trials captured by a campaign
// produce bundles that replay bit-identically — across a benchprog
// benchmark (bug + race detection) and a litmus test (weak-outcome
// detection).
func TestCampaignBundleRoundTrip(t *testing.T) {
	t.Run("benchprog", func(t *testing.T) {
		b, err := benchprog.ByName("rwlock")
		if err != nil {
			t.Fatal(err)
		}
		prog := b.Program(0)
		dir := t.TempDir()
		res := RunCampaign(prog, b.Detect, func() engine.Strategy { return core.NewPCTWM(2, 1, 25) },
			150, 11, b.Options(), Campaign{Workers: 2, ReproDir: dir, MaxRepros: 3})
		if res.Hits == 0 || len(res.Failures) == 0 {
			t.Fatalf("campaign found no failures to bundle: %+v", res)
		}
		if res.Nondeterministic != 0 {
			t.Fatalf("deterministic engine flagged nondeterministic failures: %+v", res.Failures)
		}
		verifyBundles(t, prog, res.Failures)
	})
	t.Run("litmus", func(t *testing.T) {
		test := litmus.SBRelaxed()
		if len(test.Weak) == 0 {
			t.Fatal("SBRelaxed has no weak outcome")
		}
		weak := test.Weak[0]
		detect := func(o *engine.Outcome) bool {
			return o.Err == nil && !o.Aborted && !o.Deadlocked && test.Outcome(o.FinalValues) == weak
		}
		dir := t.TempDir()
		res := RunCampaign(test.Program, detect, func() engine.Strategy { return core.NewRandom() },
			100, 5, engine.Options{}, Campaign{Workers: 1, ReproDir: dir, MaxRepros: 2})
		if len(res.Failures) == 0 {
			t.Fatalf("weak outcome %q never detected in %d runs", weak, res.Runs)
		}
		verifyBundles(t, test.Program, res.Failures)
	})
}

func verifyBundles(t *testing.T, prog *engine.Program, failures []TrialFailure) {
	t.Helper()
	for _, f := range failures {
		if f.Triage != replay.TriageDeterministic {
			t.Fatalf("failure triage %q, want DETERMINISTIC: %+v", f.Triage, f)
		}
		if f.BundlePath == "" {
			t.Fatalf("no bundle written for seed %d: %s", f.Seed, f.Msg)
		}
		if _, err := os.Stat(f.BundlePath); err != nil {
			t.Fatalf("bundle file missing: %v", err)
		}
		bundle, err := replay.LoadBundle(f.BundlePath)
		if err != nil {
			t.Fatal(err)
		}
		if bundle.Seed != f.Seed || bundle.Triage != f.Triage {
			t.Fatalf("bundle metadata mismatch: %+v vs %+v", bundle, f)
		}
		vr, err := bundle.Verify(prog)
		if err != nil {
			t.Fatal(err)
		}
		if !vr.Match {
			t.Fatalf("bundle for seed %d does not replay bit-identically: derails=%d diffs=%v",
				f.Seed, vr.Derails, vr.Diffs)
		}
		if diffs := bundle.FirstOutcome.Diff(vr.Summary); len(diffs) != 0 {
			t.Fatalf("replay diverges from the original campaign trial: %v", diffs)
		}
	}
}
