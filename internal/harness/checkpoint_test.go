package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pctwm/internal/benchprog"
	"pctwm/internal/checkpoint"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
	"pctwm/internal/telemetry"
)

// comparableResult strips the timing-dependent fields of a TrialResult
// (Elapsed, Wall are wall-clock noise; the telemetry change-point log is
// a bounded per-Runner diagnostic whose content depends on which worker
// merged first) and canonicalizes the failure order (capture order races
// across workers; the captured *set* is deterministic when the repro
// budget covers every failure).
func comparableResult(r TrialResult) TrialResult {
	r.Elapsed, r.Wall = 0, 0
	r.ResumedRuns = 0
	r.StuckDiag = ""
	if r.Telemetry != nil {
		tel := *r.Telemetry
		tel.ChangePoints = nil
		r.Telemetry = &tel
	}
	fails := append([]TrialFailure(nil), r.Failures...)
	for i := range fails {
		fails[i].BundlePath = filepath.Base(fails[i].BundlePath)
	}
	sort.Slice(fails, func(i, j int) bool { return fails[i].Seed < fails[j].Seed })
	if len(fails) == 0 {
		fails = nil
	}
	r.Failures = fails
	return r
}

// requireIdentical asserts two stripped results are bit-identical,
// dumping both on divergence: the fields, then the telemetry and the
// coverage set as JSON.
func requireIdentical(t *testing.T, label string, got, want TrialResult) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	type fields TrialResult // without TrialResult's String method
	dump := func(r TrialResult) string {
		tel, _ := json.Marshal(r.Telemetry)
		cov, _ := json.Marshal(r.Coverage)
		r.Telemetry, r.Coverage = nil, nil
		return fmt.Sprintf("%+v\ntelemetry %s\ncoverage %s", fields(r), tel, cov)
	}
	t.Fatalf("%s diverges:\n--- got ---\n%s\n--- want ---\n%s", label, dump(got), dump(want))
}

func mustBench(t *testing.T, name string) *benchprog.Benchmark {
	t.Helper()
	b, err := benchprog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointKillResumeDeterminism is the tentpole guarantee: a
// campaign killed between checkpoint generations (simulated SIGKILL via
// the killAfterChunks hook) and resumed finishes with bit-identical
// totals, telemetry merges, and repro indexes to an uninterrupted run —
// across worker counts and memory models.
func TestCheckpointKillResumeDeterminism(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	const (
		runs  = 600
		every = 100
		seed  = 42
	)
	for _, model := range []string{engine.ModelRC11, engine.ModelTSO} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", model, workers), func(t *testing.T) {
				opts := b.Options()
				opts.Model = model
				newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }

				// Reference: uninterrupted, unchunked campaign with a repro
				// budget large enough to capture every failure.
				refDir := t.TempDir()
				ref := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts,
					Campaign{Workers: workers, Telemetry: true, ReproDir: refDir, MaxRepros: runs})

				// Killed run: checkpoint every 100 trials, die after 2
				// committed generations (trial 200 of 600).
				dir := t.TempDir()
				reproDir := filepath.Join(dir, "repros")
				spec := &CheckpointSpec{Dir: filepath.Join(dir, "ckpt"), Every: every, killAfterChunks: 2}
				camp := Campaign{Workers: workers, Telemetry: true, ReproDir: reproDir, MaxRepros: runs,
					Checkpoint: spec, CheckpointCell: "kill-resume"}
				killed := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, camp)
				if !killed.Interrupted {
					t.Fatalf("killAfterChunks did not interrupt the campaign: %+v", killed)
				}
				if killed.Runs != 2*every {
					t.Fatalf("killed campaign ran %d trials, want %d", killed.Runs, 2*every)
				}

				// Resume in a fresh spec (new process): must pick up at trial
				// 200 and finish.
				respec := &CheckpointSpec{Dir: filepath.Join(dir, "ckpt"), Every: every, Resume: true}
				recamp := camp
				recamp.Checkpoint = respec
				resumed := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, recamp)
				if resumed.ResumedRuns != 2*every {
					t.Fatalf("ResumedRuns = %d, want %d", resumed.ResumedRuns, 2*every)
				}
				requireIdentical(t, "resumed vs uninterrupted", comparableResult(resumed), comparableResult(ref))

				// Repro indexes: same bundle set (by filename).
				refIdx := bundleNames(t, refDir)
				resIdx := bundleNames(t, reproDir)
				if fmt.Sprint(refIdx) != fmt.Sprint(resIdx) {
					t.Fatalf("repro index diverges:\n  resumed %v\n  ref     %v", resIdx, refIdx)
				}
				// And the durable index recorded in the checkpoint matches
				// the bundles on disk.
				idx, err := LoadReproIndex(nil, filepath.Join(dir, "ckpt"))
				if err != nil {
					t.Fatalf("LoadReproIndex: %v", err)
				}
				var idxNames []string
				for _, p := range idx {
					idxNames = append(idxNames, filepath.Base(p))
				}
				sort.Strings(idxNames)
				if fmt.Sprint(idxNames) != fmt.Sprint(resIdx) {
					t.Fatalf("checkpointed repro index diverges from disk:\n  index %v\n  disk  %v", idxNames, resIdx)
				}

				// Resuming an already-complete campaign returns the stored
				// totals without running anything.
				again := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, recamp)
				if again.ResumedRuns != runs || again.Runs != runs {
					t.Fatalf("resume of complete campaign re-ran trials: %+v", again)
				}
				requireIdentical(t, "stored vs uninterrupted", comparableResult(again), comparableResult(ref))
			})
		}
	}
}

func bundleNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestCheckpointedMatchesUnchunked: with checkpointing on and no kill,
// the chunked loop itself must not perturb totals.
func TestCheckpointedMatchesUnchunked(t *testing.T) {
	b := mustBench(t, "barrier")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }
	const runs, seed = 300, 11

	plain := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, Campaign{Workers: 2, Telemetry: true})
	spec := &CheckpointSpec{Dir: t.TempDir(), Every: 64}
	chunked := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts,
		Campaign{Workers: 2, Telemetry: true, Checkpoint: spec})
	requireIdentical(t, "checkpointed vs plain", comparableResult(chunked), comparableResult(plain))
}

// TestCheckpointReproBudget: one repro sink serves the whole campaign,
// so the MaxRepros budget and the behavior dedupe set carry across
// chunks and across a resume. A plain campaign, a checkpointed one and
// one killed after two chunks and then resumed capture the same seeds
// and write the same bundles.
func TestCheckpointReproBudget(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }
	const runs, every, seed, maxRepros = 40, 2, 5, 3
	for _, coverage := range []bool{false, true} {
		t.Run(fmt.Sprintf("coverage=%v", coverage), func(t *testing.T) {
			dir := t.TempDir()
			run := func(name string, spec *CheckpointSpec) TrialResult {
				return RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, Campaign{Workers: 1,
					Coverage: coverage, ReproDir: filepath.Join(dir, name), MaxRepros: maxRepros, Checkpoint: spec})
			}
			plain := run("plain", nil)
			want := capturedSeeds(plain)
			if !coverage && len(want) != maxRepros {
				t.Fatalf("plain campaign captured %v, want %d failures", want, maxRepros)
			}
			// The captures must straddle chunk boundaries and the kill for
			// the campaigns below to test anything.
			chunks := map[int64]bool{}
			for _, s := range want {
				chunks[(s-seed)/every] = true
			}
			if len(chunks) != len(want) || (want[0]-seed)/every >= 2 || (want[len(want)-1]-seed)/every < 2 {
				t.Fatalf("captured seeds %v do not fall in distinct chunks on both sides of the kill", want)
			}

			chunked := run("chunked", &CheckpointSpec{Dir: filepath.Join(dir, "ckpt-chunked"), Every: every})
			killed := run("resumed", &CheckpointSpec{Dir: filepath.Join(dir, "ckpt-killed"), Every: every, killAfterChunks: 2})
			if !killed.Interrupted || killed.Runs != 2*every {
				t.Fatalf("kill hook did not stop the campaign after 2 chunks: %+v", killed)
			}
			resumed := run("resumed", &CheckpointSpec{Dir: filepath.Join(dir, "ckpt-killed"), Every: every, Resume: true})
			for name, res := range map[string]TrialResult{"chunked": chunked, "resumed": resumed} {
				if got := capturedSeeds(res); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s campaign captured seeds %v, plain %v", name, got, want)
				}
				if got, plainNames := bundleNames(t, filepath.Join(dir, name)), bundleNames(t, filepath.Join(dir, "plain")); fmt.Sprint(got) != fmt.Sprint(plainNames) {
					t.Errorf("%s campaign wrote bundles %v, plain %v", name, got, plainNames)
				}
			}
		})
	}
}

// capturedSeeds lists the seeds of res's captured failures in capture
// order.
func capturedSeeds(res TrialResult) []int64 {
	var seeds []int64
	for _, f := range res.Failures {
		seeds = append(seeds, f.Seed)
	}
	return seeds
}

// TestCheckpointUndecodablePayloadRestarts: a generation whose envelope
// validates but whose payload is not campaign state restarts the
// campaign from trial 0 with a log line, like every other unusable
// checkpoint, and the campaign finishes with the unchunked totals.
func TestCheckpointUndecodablePayloadRestarts(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }
	const runs, seed = 200, 13

	ref := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, Campaign{Workers: 2})

	dir := t.TempDir()
	key := newCampaignKey(Campaign{}, prog, seed, runs, opts.Model)
	store := &checkpoint.Store{Dir: filepath.Join(dir, key.dirName())}
	if _, err := store.Save(key.id(), []byte("[]")); err != nil {
		t.Fatal(err)
	}
	var logs []string
	spec := &CheckpointSpec{Dir: dir, Every: 50, Resume: true,
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }}
	res := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, Campaign{Workers: 2, Checkpoint: spec})
	if len(logs) != 1 || !strings.Contains(logs[0], "restarting campaign from trial 0") {
		t.Fatalf("restart from an undecodable checkpoint not logged: %q", logs)
	}
	if res.ResumedRuns != 0 {
		t.Fatalf("ResumedRuns = %d after a restart, want 0", res.ResumedRuns)
	}
	requireIdentical(t, "restarted vs unchunked", comparableResult(res), comparableResult(ref))
}

// TestCheckpointTransientFaultsRetried: a burst of transient write
// errors (ENOSPC-style) is absorbed by retry/backoff; the campaign stays
// fully durable.
func TestCheckpointTransientFaultsRetried(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }

	ffs := &checkpoint.FaultFS{}
	ffs.FailWrites(2, errors.New("injected ENOSPC"))
	m := &telemetry.Metrics{}
	spec := &CheckpointSpec{Dir: t.TempDir(), Every: 50, FS: ffs}
	res := RunCampaign(prog, b.Detect, newStrategy, 150, 3, opts,
		Campaign{Workers: 2, Metrics: m, Checkpoint: spec})
	if res.Durability == DurabilityDegraded || spec.Degraded() {
		t.Fatalf("transient faults degraded the campaign: %+v", res)
	}
	snap := m.SnapshotAt(time.Now())
	if snap.CheckpointRetries < 2 {
		t.Fatalf("retries = %d, want >= 2", snap.CheckpointRetries)
	}
	if snap.CheckpointWrites != 3 {
		t.Fatalf("writes = %d, want 3 generations", snap.CheckpointWrites)
	}
}

// TestCheckpointPermanentFaultDegrades: a directory that becomes
// unwritable mid-campaign (EACCES forever) must not stop the campaign —
// it finishes, logs once, and the result is marked degraded.
func TestCheckpointPermanentFaultDegrades(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }

	ffs := &checkpoint.FaultFS{}
	var logs []string
	m := &telemetry.Metrics{}
	spec := &CheckpointSpec{Dir: t.TempDir(), Every: 40, FS: ffs,
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }}
	// First campaign lands its checkpoints, then the disk goes read-only.
	res1 := RunCampaign(prog, b.Detect, newStrategy, 40, 5, opts,
		Campaign{Workers: 1, Metrics: m, Checkpoint: spec, CheckpointCell: "warm"})
	if res1.Durability == DurabilityDegraded {
		t.Fatalf("healthy campaign marked degraded: %+v", res1)
	}
	ffs.SetPermanentError(errors.New("injected EACCES"))
	res2 := RunCampaign(prog, b.Detect, newStrategy, 120, 5, opts,
		Campaign{Workers: 2, Metrics: m, Checkpoint: spec, CheckpointCell: "cold"})
	if res2.Runs != 120 {
		t.Fatalf("degraded campaign did not finish: %d/120 trials", res2.Runs)
	}
	if res2.Durability != DurabilityDegraded || !spec.Degraded() {
		t.Fatalf("permanent write failure not marked degraded: %+v", res2)
	}
	if len(logs) != 1 {
		t.Fatalf("degradation logged %d times, want exactly once: %v", len(logs), logs)
	}
	if got := m.SnapshotAt(time.Now()).CheckpointDegraded; got != 1 {
		t.Fatalf("CheckpointDegraded = %d, want 1", got)
	}
}

// TestCheckpointTornWriteFallsBack: a torn newest generation (what a
// SIGKILL or power cut mid-flush leaves when the rename already landed)
// must not poison resume — the loader falls back to the previous good
// generation and the campaign re-runs the lost chunk, finishing
// bit-identical to an uninterrupted run.
func TestCheckpointTornWriteFallsBack(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }
	const runs, every, seed = 300, 50, 9

	ref := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts, Campaign{Workers: 2})

	dir := t.TempDir()
	spec := &CheckpointSpec{Dir: dir, Every: every, killAfterChunks: 3}
	killed := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts,
		Campaign{Workers: 2, Checkpoint: spec})
	if !killed.Interrupted {
		t.Fatalf("kill hook did not fire: %+v", killed)
	}
	// Tear the newest generation on disk: half its bytes survive.
	cells, err := os.ReadDir(dir)
	if err != nil || len(cells) != 1 {
		t.Fatalf("campaign cells = %v, %v", cells, err)
	}
	cellDir := filepath.Join(dir, cells[0].Name())
	gens, err := os.ReadDir(cellDir)
	if err != nil || len(gens) == 0 {
		t.Fatalf("generations = %v, %v", gens, err)
	}
	newest := filepath.Join(cellDir, gens[len(gens)-1].Name())
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	m := &telemetry.Metrics{}
	respec := &CheckpointSpec{Dir: dir, Every: every, Resume: true}
	resumed := RunCampaign(prog, b.Detect, newStrategy, runs, seed, opts,
		Campaign{Workers: 2, Metrics: m, Checkpoint: respec})
	if resumed.ResumedRuns != 2*every {
		t.Fatalf("resume did not fall back to generation 2: ResumedRuns = %d, want %d", resumed.ResumedRuns, 2*every)
	}
	if got := m.SnapshotAt(time.Now()).CheckpointCorrupt; got != 1 {
		t.Fatalf("CheckpointCorrupt = %d, want 1", got)
	}
	requireIdentical(t, "post-fallback totals", comparableResult(resumed), comparableResult(ref))
}

// TestCheckpointBundleWritesHardened: repro-bundle writes inside a
// checkpointed campaign ride the same fault-injectable filesystem and
// retry policy as checkpoints.
func TestCheckpointBundleWritesHardened(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	opts := b.Options()
	newStrategy := func() engine.Strategy { return C11Tester()(Estimate{}) }

	dir := t.TempDir()
	ffs := &checkpoint.FaultFS{}
	ffs.FailWrites(1, errors.New("injected EIO"))
	spec := &CheckpointSpec{Dir: filepath.Join(dir, "ckpt"), Every: 100, FS: ffs}
	res := RunCampaign(prog, b.Detect, newStrategy, 100, 21, opts,
		Campaign{Workers: 1, ReproDir: filepath.Join(dir, "repros"), MaxRepros: 100, Checkpoint: spec})
	if len(res.Failures) == 0 {
		t.Skip("no failures captured at this seed; nothing to assert")
	}
	for _, f := range res.Failures {
		if f.BundlePath == "" {
			t.Fatalf("bundle write not retried past transient fault: %+v", f)
		}
	}
}

// formatPayload is a checkpoint payload as earlier versions wrote it, so
// their checkpoints must keep resuming. It carries two keys the current
// encoding ignores: a coverage entry's change-point "depth" and the
// telemetry change-point log.
const formatPayload = `{
	"key": "{\"cell\":\"format\",\"program\":\"dekker\",\"threads\":2,\"locs\":7,\"seed\":7,\"runs\":40,\"model\":\"rc11\",\"coverage\":true,\"telemetry\":true}",
	"next_trial": 40, "complete": true,
	"runs": 40, "hits": 6, "aborted": 2, "deadlock": 1, "panics": 1, "timeouts": 1, "canceled": 0,
	"total_events": 2345, "elapsed_ns": 5000000, "wall_ns": 3000000, "nondeterministic": 1,
	"failures": [
		{"Seed": 9, "Kind": "bug", "behavior_fp": 2748, "Msg": "lost update", "Triage": "deterministic", "BundlePath": "repros/dekker-9.json"},
		{"Seed": 12, "Kind": "harness-panic", "Msg": "panic escaped the engine: boom", "Triage": "nondeterministic", "BundlePath": ""}
	],
	"telemetry": {
		"Model": "rc11", "Trials": 40,
		"Ops": [[0,300,0,0,0,0],[0,0,0,120,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0]],
		"Handoffs": 50, "SameThreadGrants": 70,
		"RFCandidates": {"Count": 2, "Sum": 4, "Max": 3, "Buckets": [0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},
		"ChangePointDepth": {"Count": 2, "Sum": 3, "Max": 2, "Buckets": [0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]},
		"RaceChecks": 11, "Drains": 0, "AxiomRecheckNs": 0, "ExploreRuns": 0, "ExplorePruned": 0,
		"ChangePoints": [{"tid": 1, "index": 2, "comm": 1, "slot": 2}, {"tid": 2, "index": 0, "comm": 2, "slot": 1}]
	},
	"coverage": {"entries": [{"fp": 16, "first": 0, "count": 2, "depth": 1}, {"fp": 32, "first": 3, "count": 1, "depth": 2}]}
}`

// objectKeys returns the sorted keys of the JSON object data.
func objectKeys(t *testing.T, data []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestCheckpointPayloadFormat pins the checkpoint payload: a payload in
// the earlier encoding resumes into the totals it records, and the
// current encoding writes the same top-level keys and none of the
// per-session fields or the change-point log.
func TestCheckpointPayloadFormat(t *testing.T) {
	b := mustBench(t, "dekker")
	prog := b.Program(0)
	camp := Campaign{Workers: 1, Coverage: true, Telemetry: true, CheckpointCell: "format"}
	key := newCampaignKey(camp, prog, 7, 40, engine.ModelRC11)
	var st campaignState
	if err := json.Unmarshal([]byte(formatPayload), &st); err != nil {
		t.Fatal(err)
	}
	if st.Key != key.id() {
		t.Fatalf("payload key %s, campaign key %s", st.Key, key.id())
	}
	dir := t.TempDir()
	store := &checkpoint.Store{Dir: filepath.Join(dir, key.dirName())}
	if _, err := store.Save(key.id(), []byte(formatPayload)); err != nil {
		t.Fatal(err)
	}
	camp.Checkpoint = &CheckpointSpec{Dir: dir, Resume: true}
	got := RunCampaign(prog, b.Detect, func() engine.Strategy { return C11Tester()(Estimate{}) },
		40, 7, b.Options(), camp)

	tel := &telemetry.EngineCounters{Model: "rc11", Trials: 40, Handoffs: 50, SameThreadGrants: 70, RaceChecks: 11,
		RFCandidates: telemetry.Hist{Count: 2, Sum: 4, Max: 3}, ChangePointDepth: telemetry.Hist{Count: 2, Sum: 3, Max: 2}}
	tel.Ops[memmodel.KindRead][memmodel.Relaxed] = 300
	tel.Ops[memmodel.KindWrite][memmodel.Release] = 120
	tel.RFCandidates.Buckets[1], tel.RFCandidates.Buckets[2] = 1, 1
	tel.ChangePointDepth.Buckets[1], tel.ChangePointDepth.Buckets[2] = 1, 1
	var cov coverage.Set
	cov.Observe(16, 0)
	cov.Observe(32, 3)
	cov.Observe(16, 5)
	want := TrialResult{Runs: 40, Hits: 6, Aborted: 2, Deadlock: 1, Panics: 1, Timeouts: 1,
		TotalEvents: 2345, Elapsed: 5 * time.Millisecond, Wall: 3 * time.Millisecond,
		Failures: []TrialFailure{
			{Seed: 9, Kind: "bug", BehaviorFP: 0xabc, Msg: "lost update", Triage: "deterministic", BundlePath: "repros/dekker-9.json"},
			{Seed: 12, Kind: "harness-panic", Msg: "panic escaped the engine: boom", Triage: "nondeterministic"},
		},
		Nondeterministic: 1, Telemetry: tel, Coverage: &cov, ResumedRuns: 40}
	requireIdentical(t, "resumed payload", got, want)
	if idx, err := LoadReproIndex(nil, dir); err != nil || !reflect.DeepEqual(idx, []string{"repros/dekker-9.json"}) {
		t.Fatalf("LoadReproIndex = %v, %v", idx, err)
	}

	// Per-session fields and the change-point log are never stored.
	got.Interrupted, got.Stuck, got.StuckDiag, got.Durability = true, true, "stuck", DurabilityDegraded
	got.Telemetry.ChangePoints = []telemetry.ChangePoint{{TID: 1, Index: 2, Comm: 1, Slot: 2}}
	data, err := json.Marshal(campaignState{Key: st.Key, NextTrial: st.NextTrial, Complete: st.Complete, TrialResult: got})
	if err != nil {
		t.Fatal(err)
	}
	if keys, want := objectKeys(t, data), objectKeys(t, []byte(formatPayload)); !reflect.DeepEqual(keys, want) {
		t.Fatalf("payload keys %v, want %v", keys, want)
	}
	var enc, old struct{ Telemetry json.RawMessage }
	if json.Unmarshal(data, &enc) != nil || json.Unmarshal([]byte(formatPayload), &old) != nil {
		t.Fatal("payload has no telemetry object")
	}
	wantTel := slices.DeleteFunc(objectKeys(t, old.Telemetry), func(k string) bool { return k == "ChangePoints" })
	if keys := objectKeys(t, enc.Telemetry); !reflect.DeepEqual(keys, wantTel) {
		t.Fatalf("telemetry keys %v, want %v", keys, wantTel)
	}
}
