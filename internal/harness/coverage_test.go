package harness

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/enumerate"
	"pctwm/internal/litmus"
	"pctwm/internal/replay"
	"pctwm/internal/telemetry"
)

// noDetect is the detector for pure coverage campaigns: nothing is a bug.
func noDetect(*engine.Outcome) bool { return false }

// TestCoverageCensusEquality is the soundness cross-validation: on every
// litmus test whose behavior space the exhaustive explorer can census
// completely, a saturated random campaign's fingerprint set must equal
// the census exactly — under every memory-model backend. A behavior
// outside the census would mean the fingerprinting (or the enumeration)
// is unsound; the campaign side is given geometrically more trials until
// it saturates.
func TestCoverageCensusEquality(t *testing.T) {
	for _, model := range engine.Models() {
		for _, lt := range litmus.Suite() {
			lt := lt
			t.Run(model+"/"+lt.Name, func(t *testing.T) {
				opts := engine.Options{Model: model}
				census, err := enumerate.BehaviorCensus(lt.Program, opts,
					enumerate.Config{Limit: 500_000})
				if err != nil {
					t.Fatal(err)
				}
				if !census.Complete {
					t.Skipf("state space too large (%d runs)", census.Runs)
				}
				want := census.Fingerprints()
				newStrategy := func() engine.Strategy { return core.NewRandom() }
				var got []uint64
				for runs := 512; runs <= 32768; runs *= 4 {
					res := RunCampaign(lt.Program, noDetect, newStrategy, runs, 7, opts,
						Campaign{Workers: 4, Coverage: true})
					got = res.Coverage.Fingerprints()
					for _, fp := range got {
						if !slices.Contains(want, fp) {
							t.Fatalf("campaign behavior %#x is outside the complete census (%d behaviors)", fp, len(want))
						}
					}
					if slices.Equal(got, want) {
						return
					}
				}
				t.Fatalf("campaign did not saturate: %d of %d census behaviors after 32768 trials",
					len(got), len(want))
			})
		}
	}
}

// TestCoverageWorkerDeterminism: the merged coverage set — entries,
// first-seen trial indices, counts, and every derived statistic — is
// bit-identical at any worker count.
func TestCoverageWorkerDeterminism(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return core.NewPCTWM(2, 1, 10) }

	ref := RunCampaign(prog, b.Detect, newStrategy, 400, 9, opts,
		Campaign{Workers: 1, Coverage: true})
	if ref.Coverage == nil || ref.Coverage.Len() == 0 {
		t.Fatalf("serial campaign produced no coverage: %+v", ref)
	}
	if ref.Coverage.Observations() > uint64(ref.Runs) {
		t.Fatalf("more observations (%d) than trials (%d)", ref.Coverage.Observations(), ref.Runs)
	}
	for _, workers := range []int{2, 8, 0} {
		got := RunCampaign(prog, b.Detect, newStrategy, 400, 9, opts,
			Campaign{Workers: workers, Coverage: true})
		if !got.Coverage.Equal(ref.Coverage) {
			t.Fatalf("workers=%d coverage set diverges from serial:\n got %+v\nwant %+v",
				workers, got.Coverage.Entries(), ref.Coverage.Entries())
		}
		if !reflect.DeepEqual(got.Coverage.Stats(), ref.Coverage.Stats()) {
			t.Fatalf("workers=%d coverage stats diverge", workers)
		}
	}
}

// TestCoverageWithoutTelemetry: coverage alone collects no engine
// counters, neither in the result nor on the metrics hub, and collecting
// them as well leaves the coverage set unchanged.
func TestCoverageWithoutTelemetry(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return core.NewPCTWM(2, 1, 10) }
	for _, workers := range []int{1, 4} {
		m := &telemetry.Metrics{}
		got := RunCampaign(prog, b.Detect, newStrategy, 400, 9, opts,
			Campaign{Workers: workers, Coverage: true, Metrics: m})
		if got.Telemetry != nil {
			t.Fatalf("workers=%d: coverage-only campaign collected engine counters: %+v",
				workers, got.Telemetry.Summary())
		}
		if eng := m.Engine(); m.Trials() != 400 || eng.Events() != 0 {
			t.Fatalf("workers=%d: metrics hub saw %d trials and %d engine events, want 400 and 0",
				workers, m.Trials(), eng.Events())
		}
		both := RunCampaign(prog, b.Detect, newStrategy, 400, 9, opts,
			Campaign{Workers: workers, Coverage: true, Telemetry: true})
		if both.Telemetry == nil {
			t.Fatalf("workers=%d: telemetry-on campaign collected no engine counters", workers)
		}
		if got.Coverage.Len() == 0 || !got.Coverage.Equal(both.Coverage) {
			t.Fatalf("workers=%d: coverage set depends on telemetry:\n got %+v\nwant %+v",
				workers, got.Coverage.Entries(), both.Coverage.Entries())
		}
	}
}

// TestCoverageKillResumeDeterminism: a campaign killed between
// checkpoint generations and resumed finishes with a coverage set (and
// estimators) bit-identical to an uninterrupted run's — first-seen trial
// indices survive the process boundary because they are campaign-global.
func TestCoverageKillResumeDeterminism(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	const (
		runs  = 600
		every = 100
		seed  = 42
	)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			opts := b.Options()
			newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }

			ref := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts,
				Campaign{Workers: workers, Coverage: true})
			if ref.Coverage == nil || ref.Coverage.Len() == 0 {
				t.Fatalf("reference campaign produced no coverage")
			}

			dir := t.TempDir()
			spec := &CheckpointSpec{Dir: filepath.Join(dir, "ckpt"), Every: every, killAfterChunks: 2}
			camp := Campaign{Workers: workers, Coverage: true,
				Checkpoint: spec, CheckpointCell: "coverage-kill-resume"}
			killed := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, camp)
			if !killed.Interrupted || killed.Runs != 2*every {
				t.Fatalf("killAfterChunks did not interrupt at trial %d: %+v", 2*every, killed)
			}

			respec := &CheckpointSpec{Dir: filepath.Join(dir, "ckpt"), Every: every, Resume: true}
			recamp := camp
			recamp.Checkpoint = respec
			resumed := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, recamp)
			if resumed.ResumedRuns != 2*every {
				t.Fatalf("ResumedRuns = %d, want %d", resumed.ResumedRuns, 2*every)
			}
			if !resumed.Coverage.Equal(ref.Coverage) {
				t.Fatalf("resumed coverage set diverges from uninterrupted:\n got %+v\nwant %+v",
					resumed.Coverage.Entries(), ref.Coverage.Entries())
			}
			if !reflect.DeepEqual(resumed.Coverage.Stats(), ref.Coverage.Stats()) {
				t.Fatalf("resumed coverage stats diverge:\n got %+v\nwant %+v",
					resumed.Coverage.Stats(), ref.Coverage.Stats())
			}

			// Resuming the complete campaign restores the set from the
			// checkpoint without running anything.
			again := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, recamp)
			if again.ResumedRuns != runs || !again.Coverage.Equal(ref.Coverage) {
				t.Fatalf("stored coverage set diverges after full resume")
			}
		})
	}
}

// TestResumeUnderOtherConfiguration: a checkpoint is keyed by whether
// the campaign collected coverage and telemetry, so resuming a completed
// campaign that collected neither with one of them on starts over from
// trial 0 and returns what an uninterrupted campaign collects.
func TestResumeUnderOtherConfiguration(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	const runs, seed = 300, 42
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }
	for _, on := range []Campaign{{Coverage: true}, {Telemetry: true}} {
		on.Workers = 1
		t.Run(fmt.Sprintf("coverage=%v,telemetry=%v", on.Coverage, on.Telemetry), func(t *testing.T) {
			ref := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, on)

			dir := filepath.Join(t.TempDir(), "ckpt")
			off := Campaign{Workers: 1, CheckpointCell: "dekker/c11tester",
				Checkpoint: &CheckpointSpec{Dir: dir, Every: 100}}
			RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, off)

			resume := on
			resume.CheckpointCell = off.CheckpointCell
			resume.Checkpoint = &CheckpointSpec{Dir: dir, Every: 100, Resume: true}
			got := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, resume)
			if got.ResumedRuns != 0 {
				t.Fatalf("resumed %d trials of a checkpoint taken under another configuration", got.ResumedRuns)
			}
			if on.Coverage && (got.Coverage == nil || !got.Coverage.Equal(ref.Coverage)) {
				t.Fatalf("coverage set differs from an uninterrupted coverage-on campaign")
			}
			if on.Telemetry && (got.Telemetry == nil || !reflect.DeepEqual(got.Telemetry.Summary(), ref.Telemetry.Summary())) {
				t.Fatalf("telemetry differs from an uninterrupted telemetry-on campaign")
			}
		})
	}
}

// TestCoverageReproDedupe: with coverage on, the repro budget is keyed
// by behavior fingerprint — a campaign whose failures repeat the same
// behavior captures each distinct behavior once instead of burning the
// budget on duplicates.
func TestCoverageReproDedupe(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	newStrategy := func() engine.Strategy { return core.NewPCTWM(2, 1, 10) }

	dir := t.TempDir()
	res := RunCampaign(prog, b.Detect, newStrategy, 400, 9, b.Options(),
		Campaign{Workers: 1, Coverage: true, ReproDir: dir, MaxRepros: 400})
	if res.Hits == 0 || len(res.Failures) == 0 {
		t.Fatalf("campaign found nothing to capture: %+v", res)
	}
	if len(res.Failures) >= res.Hits {
		t.Fatalf("dedupe captured %d bundles for %d hits — expected fewer bundles than hits",
			len(res.Failures), res.Hits)
	}
	seen := map[uint64]bool{}
	for _, f := range res.Failures {
		if f.BehaviorFP == 0 {
			t.Fatalf("failure captured without a behavior fingerprint: %+v", f)
		}
		if seen[f.BehaviorFP] {
			t.Fatalf("behavior %#x captured twice: %+v", f.BehaviorFP, res.Failures)
		}
		seen[f.BehaviorFP] = true
		bun, err := replay.LoadBundle(f.BundlePath)
		if err != nil {
			t.Fatal(err)
		}
		if bun.BehaviorFP != f.BehaviorFP {
			t.Fatalf("bundle records behavior %#x, campaign %#x", bun.BehaviorFP, f.BehaviorFP)
		}
	}
}

// TestCoverageZeroAlloc: arming Options.Coverage adds zero allocations
// to the steady-state trial loop — the accumulator's scratch is owned by
// the Runner and reused across runs.
func TestCoverageZeroAlloc(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)

	measure := func(cov bool) float64 {
		opts := b.Options()
		opts.Coverage = cov
		r := engine.NewRunner(prog, opts)
		defer r.Close()
		strat := core.NewRandom()
		for i := 0; i < 20; i++ {
			r.Run(strat, int64(i))
		}
		seed := int64(0)
		return testing.AllocsPerRun(300, func() {
			r.Run(strat, seed)
			seed++
		})
	}

	off := measure(false)
	on := measure(true)
	if delta := on - off; delta > 0.5 {
		t.Fatalf("coverage adds %.2f allocs/run (off %.2f, on %.2f), want 0", delta, off, on)
	}
}
