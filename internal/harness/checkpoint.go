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

	"pctwm/internal/checkpoint"
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
// gets its own subdirectory under Dir, keyed by program/seed/runs/model,
// coverage and telemetry, plus Campaign.CheckpointCell); the degraded
// flag is deliberately sticky across cells — once the directory proves
// unwritable, the whole report is marked.
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
// consuming stateful ones); callers that run several strategies, or one
// strategy with several parameters, over the same (program, seed, runs)
// disambiguate with Campaign.CheckpointCell. Coverage and Telemetry are
// part of the key because a checkpoint taken without them holds no
// coverage set or counters to resume.
type campaignKey struct {
	Cell      string `json:"cell,omitempty"`
	Program   string `json:"program"`
	Threads   int    `json:"threads"`
	Locs      int    `json:"locs"`
	Seed      int64  `json:"seed"`
	Runs      int    `json:"runs"`
	Model     string `json:"model"`
	Coverage  bool   `json:"coverage,omitempty"`
	Telemetry bool   `json:"telemetry,omitempty"`
}

func newCampaignKey(camp Campaign, prog *engine.Program, seed int64, runs int, model string) campaignKey {
	if model == "" {
		model = engine.ModelRC11
	}
	return campaignKey{
		Cell:      camp.CheckpointCell,
		Program:   prog.Name(),
		Threads:   prog.NumThreads(),
		Locs:      prog.NumLocs(),
		Seed:      seed,
		Runs:      runs,
		Model:     model,
		Coverage:  camp.Coverage,
		Telemetry: camp.Telemetry,
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
// totals; the resumed campaign continues at seed+NextTrial. The totals
// are the cumulative TrialResult in its JSON form, which leaves out the
// per-session fields and the telemetry change-point log. Wall-clock
// fields accumulate across sessions.
type campaignState struct {
	Key       string `json:"key"`
	NextTrial int    `json:"next_trial"`
	Complete  bool   `json:"complete"`
	TrialResult
}

// campaignCheckpoint is the durable store of one checkpointed campaign
// cell.
type campaignCheckpoint struct {
	spec  *CheckpointSpec
	key   campaignKey
	store *checkpoint.Store
	saved int // generations this process committed
}

// openCheckpoint arms camp's checkpoint spec for one campaign cell; nil
// when no spec is armed. With Resume it restores the newest good
// generation into res and returns the round to continue from: 0 for a
// fresh campaign, or after logging why a stored one cannot be used.
//
// Determinism argument: round i always runs with seed+i regardless of
// which worker claims it, and every aggregate (counters, histograms,
// engine telemetry, coverage keyed by campaign-global round index)
// merges commutatively. Chunk boundaries are therefore arbitrary split
// points of the same seed set, and the restored failures seed the one
// repro sink: resuming at a boundary re-runs exactly the rounds an
// uninterrupted campaign would have run, so the final totals are
// bit-identical at any worker count and any kill pattern.
func openCheckpoint(prog *engine.Program, seed int64, runs int, model string, camp Campaign, res *TrialResult) (*campaignCheckpoint, int) {
	spec := camp.Checkpoint
	if spec == nil || spec.Dir == "" {
		return nil, 0
	}
	key := newCampaignKey(camp, prog, seed, runs, model)
	ck := &campaignCheckpoint{spec: spec, key: key,
		store: &checkpoint.Store{FS: spec.fsys(), Dir: filepath.Join(spec.Dir, key.dirName())}}
	if camp.Metrics != nil {
		ck.store.Observer = camp.Metrics
	}
	if !spec.Resume {
		return ck, 0
	}
	payload, gen, err := ck.store.Load(key.id())
	var corrupt *checkpoint.CorruptError
	switch {
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		// Fresh campaign: nothing to resume.
	case errors.As(err, &corrupt):
		// Every generation is corrupt: start over rather than crash.
		spec.logf("checkpoint: %v; restarting campaign from trial 0", err)
	case err != nil:
		spec.logf("checkpoint: load failed (%v); restarting campaign from trial 0", err)
	default:
		var st campaignState
		if err := json.Unmarshal(payload, &st); err != nil {
			spec.logf("checkpoint: %s generation %d is not campaign state (%v); restarting campaign from trial 0",
				key.dirName(), gen, err)
			return ck, 0
		}
		*res = st.TrialResult
		res.ResumedRuns = st.NextTrial
		if camp.Metrics != nil && res.Telemetry != nil {
			camp.Metrics.MergeEngine(res.Telemetry)
		}
		if st.NextTrial < runs {
			spec.logf("checkpoint: resuming %s at trial %d/%d (generation %d)", key.dirName(), st.NextTrial, runs, gen)
		}
		return ck, st.NextTrial
	}
	return ck, 0
}

// save commits res as the campaign state after round next. A failed
// write degrades the spec and the campaign runs on. It reports whether
// the test kill hook fired.
func (ck *campaignCheckpoint) save(res *TrialResult, next, runs int, m *telemetry.Metrics) bool {
	payload, err := json.Marshal(campaignState{Key: ck.key.id(), NextTrial: next,
		Complete: next >= runs, TrialResult: *res})
	if err == nil {
		_, err = ck.store.Save(ck.key.id(), payload)
	}
	if err != nil {
		ck.spec.degrade(err, m)
		return false
	}
	ck.saved++
	// Simulated SIGKILL between generations: the campaign stops with the
	// durable state exactly as a kill would leave it.
	return ck.spec.killAfterChunks > 0 && ck.saved >= ck.spec.killAfterChunks && next < runs
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
