package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pctwm/internal/checkpoint"
	"pctwm/internal/coverage"
	"pctwm/internal/engine"
	"pctwm/internal/telemetry"
)

// Metrics is the canonical checkpoint.Observer; the assertion lives here
// because telemetry deliberately does not import checkpoint.
var _ checkpoint.Observer = (*telemetry.Metrics)(nil)

// DefaultCheckpointEvery is the checkpoint cadence (trials per
// generation) when CheckpointSpec.Every is zero. Large enough that the
// save cost (one JSON write) vanishes against thousands of trials, small
// enough that a kill loses at most a few seconds of work.
const DefaultCheckpointEvery = 5000

// CheckpointSpec arms the checkpoint/resume layer of RunCampaign: the
// campaign runs in chunks of Every trials and writes an atomic,
// checksummed, versioned snapshot of its cumulative state after each
// chunk, so a killed process can resume with -resume and finish with
// bit-identical totals to an uninterrupted run at any worker count.
//
// One spec is shared by every campaign of a process (each campaign cell
// gets its own subdirectory under Dir, keyed by program/seed/runs/model
// plus Campaign.CheckpointCell); the degraded flag is deliberately
// sticky across cells — once the directory proves unwritable, the whole
// report is marked.
type CheckpointSpec struct {
	// Dir is the checkpoint directory (required; "" disables the layer).
	Dir string
	// Every is the chunk size in trials (0 = DefaultCheckpointEvery). A
	// kill or cancellation loses at most the in-flight chunk, which the
	// resumed campaign re-runs from its chunk boundary.
	Every int
	// Resume makes campaigns load the newest good checkpoint generation
	// under Dir and continue from it instead of starting over.
	Resume bool
	// FS is the filesystem checkpoints and repro bundles are written
	// through (nil = the real one); tests inject a checkpoint.FaultFS.
	FS checkpoint.FS
	// Logf receives the one-time degradation notice and corruption
	// recoveries (nil = silent).
	Logf func(format string, args ...any)

	degraded atomic.Bool
	logOnce  sync.Once

	// killAfterChunks is a test hook simulating SIGKILL: when > 0 the
	// campaign returns abruptly after that many committed generations,
	// leaving durable state exactly as a kill between generations would.
	killAfterChunks int
}

func (s *CheckpointSpec) fsys() checkpoint.FS {
	if s.FS == nil {
		return checkpoint.OS
	}
	return s.FS
}

func (s *CheckpointSpec) every() int {
	if s.Every <= 0 {
		return DefaultCheckpointEvery
	}
	return s.Every
}

func (s *CheckpointSpec) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Degraded reports whether any campaign under this spec gave up on
// durable writes (the directory became unwritable mid-campaign).
func (s *CheckpointSpec) Degraded() bool { return s.degraded.Load() }

// degrade records a durable-write failure: the campaign keeps running,
// the failure is logged once, and the result is marked degraded.
func (s *CheckpointSpec) degrade(err error, m *telemetry.Metrics) {
	s.logOnce.Do(func() {
		s.logf("checkpoint: durable writes failing, campaign continues without checkpoints: %v", err)
		if m != nil {
			m.CheckpointDegraded()
		}
	})
	s.degraded.Store(true)
}

// campaignKey identifies one campaign cell: the identity a checkpoint
// must match to be resumed into it. Strategy identity is deliberately
// not part of the key (strategy factories cannot be probed without
// consuming stateful ones); callers that run several strategies over the
// same (program, seed, runs) disambiguate with Campaign.CheckpointCell.
type campaignKey struct {
	Cell    string `json:"cell,omitempty"`
	Program string `json:"program"`
	Threads int    `json:"threads"`
	Locs    int    `json:"locs"`
	Seed    int64  `json:"seed"`
	Runs    int    `json:"runs"`
	Model   string `json:"model"`
}

func newCampaignKey(cell string, prog *engine.Program, seed int64, runs int, model string) campaignKey {
	if model == "" {
		model = engine.ModelRC11
	}
	return campaignKey{
		Cell:    cell,
		Program: prog.Name(),
		Threads: prog.NumThreads(),
		Locs:    prog.NumLocs(),
		Seed:    seed,
		Runs:    runs,
		Model:   model,
	}
}

// id renders the key canonically; it is stored in every checkpoint
// envelope and verified on load.
func (k campaignKey) id() string {
	data, _ := json.Marshal(k)
	return string(data)
}

// dirName maps the key onto a filesystem-safe subdirectory: a
// human-readable slug plus a hash of the full identity (two cells that
// differ only in, say, seed never share a directory).
func (k campaignKey) dirName() string {
	slug := k.Cell
	if slug == "" {
		slug = k.Program
	}
	slug = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, slug)
	h := fnv.New64a()
	h.Write([]byte(k.id()))
	return fmt.Sprintf("%s-%016x", slug, h.Sum64())
}

// campaignState is the checkpoint payload: everything needed to resume a
// campaign and finish with totals bit-identical to an uninterrupted run.
// NextTrial is the number of leading rounds fully merged into the
// counts; the resumed campaign continues at seed+NextTrial. Wall-clock
// fields accumulate across sessions.
type campaignState struct {
	Key              string                    `json:"key"`
	NextTrial        int                       `json:"next_trial"`
	Complete         bool                      `json:"complete"`
	Runs             int                       `json:"runs"`
	Hits             int                       `json:"hits"`
	Aborted          int                       `json:"aborted"`
	Deadlock         int                       `json:"deadlock"`
	Panics           int                       `json:"panics"`
	Timeouts         int                       `json:"timeouts"`
	Canceled         int                       `json:"canceled"`
	TotalEvents      int                       `json:"total_events"`
	ElapsedNs        int64                     `json:"elapsed_ns"`
	WallNs           int64                     `json:"wall_ns"`
	Nondeterministic int                       `json:"nondeterministic"`
	Failures         []TrialFailure            `json:"failures,omitempty"`
	Telemetry        *telemetry.EngineCounters `json:"telemetry,omitempty"`
	Coverage         *coverage.Set             `json:"coverage,omitempty"`
}

// newCampaignState snapshots the cumulative result at a chunk boundary.
// The telemetry change-point log (a bounded per-Runner diagnostic,
// excluded from merged totals) is not persisted.
func newCampaignState(key campaignKey, cum *TrialResult, next int, complete bool) campaignState {
	st := campaignState{
		Key:              key.id(),
		NextTrial:        next,
		Complete:         complete,
		Runs:             cum.Runs,
		Hits:             cum.Hits,
		Aborted:          cum.Aborted,
		Deadlock:         cum.Deadlock,
		Panics:           cum.Panics,
		Timeouts:         cum.Timeouts,
		Canceled:         cum.Canceled,
		TotalEvents:      cum.TotalEvents,
		ElapsedNs:        cum.Elapsed.Nanoseconds(),
		WallNs:           cum.Wall.Nanoseconds(),
		Nondeterministic: cum.Nondeterministic,
		Failures:         cum.Failures,
	}
	if cum.Telemetry != nil {
		tel := *cum.Telemetry
		tel.ChangePoints = nil
		st.Telemetry = &tel
	}
	st.Coverage = cum.Coverage
	return st
}

// restore loads the checkpointed counts into a fresh cumulative result.
func (st *campaignState) restore(cum *TrialResult) {
	cum.Runs = st.Runs
	cum.Hits = st.Hits
	cum.Aborted = st.Aborted
	cum.Deadlock = st.Deadlock
	cum.Panics = st.Panics
	cum.Timeouts = st.Timeouts
	cum.Canceled = st.Canceled
	cum.TotalEvents = st.TotalEvents
	cum.Elapsed = time.Duration(st.ElapsedNs)
	cum.Wall = time.Duration(st.WallNs)
	cum.Nondeterministic = st.Nondeterministic
	cum.Failures = st.Failures
	cum.Telemetry = st.Telemetry
	cum.Coverage = st.Coverage
	cum.ResumedRuns = st.NextTrial
}

// mergeCheckpointChunk folds one chunk's result into the cumulative
// campaign result. Counter merging matches mergeTrialResults; failures
// append (the repro budget is enforced globally by the chunk loop) and
// telemetry merges commutatively, so the cumulative totals equal an
// uninterrupted run's at any chunking and worker count.
func mergeCheckpointChunk(cum *TrialResult, chunk TrialResult) {
	mergeTrialResults(cum, chunk)
	cum.Wall += chunk.Wall
	cum.Stuck = cum.Stuck || chunk.Stuck
	if chunk.StuckDiag != "" {
		cum.StuckDiag = chunk.StuckDiag
	}
	cum.Failures = append(cum.Failures, chunk.Failures...)
	cum.Nondeterministic += chunk.Nondeterministic
	if chunk.Telemetry != nil {
		if cum.Telemetry == nil {
			cum.Telemetry = &telemetry.EngineCounters{}
		}
		keepCPs := cum.Telemetry.ChangePoints
		cum.Telemetry.Merge(chunk.Telemetry)
		if len(keepCPs) == 0 && len(chunk.Telemetry.ChangePoints) > 0 {
			cum.Telemetry.ChangePoints = append([]telemetry.ChangePoint(nil), chunk.Telemetry.ChangePoints...)
		} else {
			cum.Telemetry.ChangePoints = keepCPs
		}
	}
	if chunk.Coverage != nil {
		if cum.Coverage == nil {
			cum.Coverage = &coverage.Set{}
		}
		// Chunk trial indices are already campaign-global (the loop sets
		// Campaign.trialBase per chunk), so the merge is the same
		// order-insensitive fold the parallel workers use.
		cum.Coverage.Merge(chunk.Coverage)
	}
}

// runCheckpointedCampaign is RunCampaign's durable mode: the rounds run
// in chunks of spec.every() through the ordinary pool, and the
// cumulative state is checkpointed at every chunk boundary.
//
// Determinism argument: round i always runs with seed+i regardless of
// which worker claims it (the pool's atomic-counter partitioning), and
// every aggregate — counters, histograms, engine telemetry — merges
// commutatively. Chunk boundaries are therefore arbitrary split points
// of the same seed set: resuming at a boundary re-runs exactly the
// rounds an uninterrupted campaign would have run, so the final totals
// are bit-identical at any worker count and any kill pattern.
// Interrupted or stuck chunks are merged into the *returned* result (the
// operator sees partial counts) but never checkpointed: the durable
// state only ever advances by whole, cleanly-finished chunks, which a
// resume re-runs idempotently.
func runCheckpointedCampaign(prog *engine.Program, detect func(*engine.Outcome) bool,
	newStrategy func() engine.Strategy, runs int, seed int64, opts engine.Options, camp Campaign) TrialResult {
	spec := camp.Checkpoint
	key := newCampaignKey(camp.CheckpointCell, prog, seed, runs, opts.Model)
	store := &checkpoint.Store{FS: spec.fsys(), Dir: filepath.Join(spec.Dir, key.dirName())}
	if camp.Metrics != nil {
		store.Observer = camp.Metrics
	}

	// The caller's accumulator is stripped from the chunk options and
	// merged into exactly once at the end, mirroring runCampaignBatch.
	collect := camp.Telemetry || opts.Telemetry != nil
	telBase := opts.Telemetry
	opts.Telemetry = nil

	var cum TrialResult
	at := 0
	if spec.Resume {
		payload, gen, err := store.Load(key.id())
		var corrupt *checkpoint.CorruptError
		switch {
		case err == nil:
			var st campaignState
			if jerr := json.Unmarshal(payload, &st); jerr == nil {
				at = st.NextTrial
				st.restore(&cum)
				if camp.Metrics != nil && cum.Telemetry != nil {
					camp.Metrics.MergeEngine(cum.Telemetry)
				}
				if st.Complete || at >= runs {
					finishResumed(&cum, telBase, spec)
					return cum
				}
				spec.logf("checkpoint: resuming %s at trial %d/%d (generation %d)", key.dirName(), at, runs, gen)
			}
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh campaign: nothing to resume.
		case errors.As(err, &corrupt):
			// Every generation is corrupt: start over rather than crash.
			spec.logf("checkpoint: %v; restarting campaign from trial 0", err)
		default:
			spec.logf("checkpoint: load failed (%v); restarting campaign from trial 0", err)
		}
	}

	reproTotal := 0
	if camp.ReproDir != "" {
		reproTotal = camp.MaxRepros
		if reproTotal <= 0 {
			reproTotal = defaultMaxRepros
		}
	}

	saved := 0
	for at < runs {
		if camp.Context != nil && camp.Context.Err() != nil {
			cum.Interrupted = true
			break
		}
		n := min(spec.every(), runs-at)
		inner := camp
		inner.Checkpoint = nil
		inner.CheckpointCell = ""
		inner.Telemetry = collect
		inner.sinkFS = spec.fsys()
		// Coverage novelty is keyed by campaign-global trial indices: the
		// chunk's workers offset their local indices by the chunk start,
		// so a resumed campaign's coverage curve continues seamlessly.
		inner.trialBase = int64(at)
		if camp.Coverage {
			// Seed the chunk's repro dedupe with the behaviors already
			// bundled (restored from the checkpoint or earlier chunks).
			inner.reproSeen = nil
			for _, f := range cum.Failures {
				if f.BehaviorFP != 0 {
					inner.reproSeen = append(inner.reproSeen, f.BehaviorFP)
				}
			}
		}
		if camp.ReproDir != "" {
			// The repro budget is global across chunks and sessions: the
			// restored failure list counts against it, so a resumed campaign
			// captures exactly the failures an uninterrupted one would.
			remaining := reproTotal - len(cum.Failures)
			if remaining <= 0 {
				inner.ReproDir = ""
				inner.MaxRepros = 0
			} else {
				inner.MaxRepros = remaining
			}
		}
		chunk := runCampaignBatch(prog, detect, newStrategy, n, seed+int64(at), opts, inner)
		mergeCheckpointChunk(&cum, chunk)
		if chunk.Interrupted || chunk.Stuck {
			break
		}
		at += n
		st := newCampaignState(key, &cum, at, at >= runs)
		payload, merr := json.Marshal(st)
		if merr != nil {
			spec.degrade(merr, camp.Metrics)
		} else if _, serr := store.Save(key.id(), payload); serr != nil {
			spec.degrade(serr, camp.Metrics)
		} else {
			saved++
			if spec.killAfterChunks > 0 && saved >= spec.killAfterChunks && at < runs {
				// Simulated SIGKILL between generations: abandon the campaign
				// with the durable state exactly as a kill would leave it.
				cum.Interrupted = true
				finishResumed(&cum, nil, spec)
				return cum
			}
		}
	}
	finishResumed(&cum, telBase, spec)
	return cum
}

// finishResumed applies the end-of-campaign bookkeeping shared by every
// exit path of the checkpointed loop: the caller's telemetry accumulator
// merge and the durability stamp.
func finishResumed(cum *TrialResult, telBase *telemetry.EngineCounters, spec *CheckpointSpec) {
	if telBase != nil && cum.Telemetry != nil {
		telBase.Merge(cum.Telemetry)
	}
	if spec.Degraded() {
		cum.Durability = DurabilityDegraded
	}
}

// LoadReproIndex collects the repro-bundle paths recorded in the newest
// good checkpoint generation of every campaign cell under dir, sorted
// and deduplicated — the durable index pctwm replay -campaign replays.
func LoadReproIndex(fsys checkpoint.FS, dir string) ([]string, error) {
	if fsys == nil {
		fsys = checkpoint.OS
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading campaign dir: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		store := &checkpoint.Store{FS: fsys, Dir: filepath.Join(dir, e.Name())}
		payload, _, err := store.LoadLatest()
		if err != nil {
			continue // empty or corrupt cell: nothing to index
		}
		var st campaignState
		if json.Unmarshal(payload, &st) != nil {
			continue
		}
		for _, f := range st.Failures {
			if f.BundlePath != "" {
				paths = append(paths, f.BundlePath)
			}
		}
	}
	sort.Strings(paths)
	out := paths[:0]
	for i, p := range paths {
		if i == 0 || p != paths[i-1] {
			out = append(out, p)
		}
	}
	return out, nil
}
