package replay

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pctwm/internal/checkpoint"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// BundleVersion is the current repro-bundle format version. Version 2
// added the top-level memory-model record; version 3 added the behavior
// fingerprint. Loaders accept version 2 bundles (their BehaviorFP is
// simply absent) and version 1 bundles (written before the engine grew
// selectable backends) by treating them as rc11. Bump on incompatible
// changes.
const BundleVersion = 3

// bundleVersionModel is the pre-coverage model-tagged format, still read.
const bundleVersionModel = 2

// bundleVersionLegacy is the last pre-model bundle format, still read.
const bundleVersionLegacy = 1

// OutcomeSummary is the replay-verifiable digest of an engine.Outcome: the
// schedule-determined counters, the failure signals, and the final state.
// Two runs of the same program with the same decision sequence must agree
// on every field (Recording and Duration are deliberately excluded — the
// former is bulky and implied, the latter is wall-clock noise).
type OutcomeSummary struct {
	Steps       int                       `json:"steps"`
	Events      int                       `json:"events"`
	CommEvents  int                       `json:"comm_events"`
	BugHit      bool                      `json:"bug_hit"`
	BugMessages []string                  `json:"bug_messages,omitempty"`
	ErrKind     string                    `json:"err_kind,omitempty"`
	ErrMsg      string                    `json:"err_msg,omitempty"`
	Aborted     bool                      `json:"aborted,omitempty"`
	Deadlocked  bool                      `json:"deadlocked,omitempty"`
	Races       int                       `json:"races"`
	FinalValues map[string]memmodel.Value `json:"final_values,omitempty"`
}

// Summarize digests an outcome. The Canceled flag is folded into ErrKind;
// bundles are written from triage re-runs without a Context, so a
// bundle's summary never carries a cancellation.
func Summarize(o *engine.Outcome) OutcomeSummary {
	s := OutcomeSummary{
		Steps:       o.Steps,
		Events:      o.Events,
		CommEvents:  o.CommEvents,
		BugHit:      o.BugHit,
		BugMessages: o.BugMessages,
		Aborted:     o.Aborted,
		Deadlocked:  o.Deadlocked,
		Races:       len(o.Races),
		FinalValues: o.FinalValues,
	}
	if o.Err != nil {
		s.ErrKind = o.Err.Kind.String()
		s.ErrMsg = o.Err.Msg
	}
	return s
}

// Diff lists the fields on which two summaries disagree (empty = equal).
// The order is deterministic for stable diagnostics.
func (s OutcomeSummary) Diff(other OutcomeSummary) []string {
	var diffs []string
	add := func(field string, a, b any) {
		diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", field, a, b))
	}
	if s.Steps != other.Steps {
		add("steps", s.Steps, other.Steps)
	}
	if s.Events != other.Events {
		add("events", s.Events, other.Events)
	}
	if s.CommEvents != other.CommEvents {
		add("comm_events", s.CommEvents, other.CommEvents)
	}
	if s.BugHit != other.BugHit {
		add("bug_hit", s.BugHit, other.BugHit)
	}
	if len(s.BugMessages) != len(other.BugMessages) {
		add("bug_messages", len(s.BugMessages), len(other.BugMessages))
	} else {
		for i := range s.BugMessages {
			if s.BugMessages[i] != other.BugMessages[i] {
				add(fmt.Sprintf("bug_messages[%d]", i), s.BugMessages[i], other.BugMessages[i])
				break
			}
		}
	}
	if s.ErrKind != other.ErrKind {
		add("err_kind", s.ErrKind, other.ErrKind)
	}
	if s.Aborted != other.Aborted {
		add("aborted", s.Aborted, other.Aborted)
	}
	if s.Deadlocked != other.Deadlocked {
		add("deadlocked", s.Deadlocked, other.Deadlocked)
	}
	if s.Races != other.Races {
		add("races", s.Races, other.Races)
	}
	if len(s.FinalValues) != len(other.FinalValues) {
		add("final_values", len(s.FinalValues), len(other.FinalValues))
	} else {
		keys := make([]string, 0, len(s.FinalValues))
		for k := range s.FinalValues {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv, ok := other.FinalValues[k]
			if !ok || bv != s.FinalValues[k] {
				add("final_values["+k+"]", s.FinalValues[k], bv)
				break
			}
		}
	}
	return diffs
}

// Triage verdicts recorded in bundles (see harness flake triage: the
// failing seed is re-run once on a fresh Runner and compared).
const (
	// TriageDeterministic: the re-run reproduced the original outcome —
	// the failure is a real, replayable program behaviour.
	TriageDeterministic = "DETERMINISTIC"
	// TriageNondeterministic: the re-run diverged from the original
	// outcome for the same (program, strategy, seed) — an engine or
	// strategy determinism bug; the bundle's trace captures the re-run.
	TriageNondeterministic = "NONDETERMINISTIC"
)

// Bundle is a self-contained reproduction artifact for one failing trial:
// everything needed to re-execute the run bit-identically (program
// identity, strategy, seed, engine options, the recorded decision
// sequence) plus the outcome it must reproduce and the flake-triage
// verdict. Bundles are written as JSON under a campaign's repro
// directory and replayed by `pctwm replay` (or Bundle.Verify).
type Bundle struct {
	Version int    `json:"version"`
	Program string `json:"program"`
	// ProgramThreads/ProgramLocs fingerprint the program so a replay
	// against a same-named but different program is flagged instead of
	// silently derailing.
	ProgramThreads int    `json:"program_threads"`
	ProgramLocs    int    `json:"program_locs"`
	Strategy       string `json:"strategy"`
	Seed           int64  `json:"seed"`
	// Model is the memory-model backend the trace was recorded under
	// ("rc11", "sc", "tso"). A decision sequence is only meaningful
	// against the semantics that produced it — the same schedule read
	// under another model visits different states — so DecodeBundle
	// refuses bundles recording a model this build does not implement,
	// and Verify replays under exactly this model.
	Model   string         `json:"model"`
	Options engine.Options `json:"options"`
	// Trace is the recorded decision sequence of the triage re-run; nil
	// when the trial panicked before any decision was recorded.
	Trace *Trace `json:"trace,omitempty"`
	// Outcome is the digest of the triage re-run (what a replay must
	// reproduce). For harness panics it digests the partial run.
	Outcome OutcomeSummary `json:"outcome"`
	// FirstOutcome is the digest of the original campaign trial. It equals
	// Outcome when Triage is DETERMINISTIC.
	FirstOutcome OutcomeSummary `json:"first_outcome"`
	// BehaviorFP is the original trial's canonical behavior fingerprint
	// (internal/coverage), recorded when the campaign ran with coverage
	// on. Zero for coverage-off campaigns, harness-panic bundles, and
	// pre-v3 bundles. When set, a replay with Options.Coverage re-derives
	// the fingerprint and Verify checks it matches.
	BehaviorFP uint64 `json:"behavior_fp,omitempty"`
	Triage     string `json:"triage"`
	// HarnessPanic carries the panic value when the trial panicked outside
	// the engine (strategy or harness code); Stack is the recovered stack.
	// Such bundles replay best-effort: the Player stands in for the
	// panicking strategy, so Verify skips the outcome match.
	HarnessPanic string    `json:"harness_panic,omitempty"`
	Stack        string    `json:"stack,omitempty"`
	WrittenAt    time.Time `json:"written_at"`
}

// NewBundle assembles a bundle for prog. Options are embedded as given
// (strip Context before calling; it does not serialize).
func NewBundle(prog *engine.Program, strategy string, seed int64, opts engine.Options) *Bundle {
	model := opts.Model
	if model == "" {
		model = engine.ModelRC11
	}
	return &Bundle{
		Version:        BundleVersion,
		Program:        prog.Name(),
		ProgramThreads: prog.NumThreads(),
		ProgramLocs:    prog.NumLocs(),
		Strategy:       strategy,
		Seed:           seed,
		Model:          model,
		Options:        opts,
		WrittenAt:      time.Now().UTC(),
	}
}

// Matches reports whether prog matches the bundle's program fingerprint.
func (b *Bundle) Matches(prog *engine.Program) bool {
	return b.Program == prog.Name() &&
		b.ProgramThreads == prog.NumThreads() &&
		b.ProgramLocs == prog.NumLocs()
}

// Encode renders the bundle as indented JSON.
func (b *Bundle) Encode() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// DecodeBundle parses and validates a JSON bundle. Version-1 bundles
// (pre-model) are upgraded in place: they were recorded by the rc11-only
// engine, so their model is rc11 by construction.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("replay: decoding bundle: %w", err)
	}
	switch b.Version {
	case BundleVersion:
	case bundleVersionModel:
		// Pre-coverage: no fingerprint was recorded. Nothing to upgrade.
	case bundleVersionLegacy:
		if b.Model == "" {
			b.Model = engine.ModelRC11
		}
	default:
		return nil, fmt.Errorf("replay: bundle version %d, this build reads versions %d through %d",
			b.Version, bundleVersionLegacy, BundleVersion)
	}
	if b.Program == "" {
		return nil, fmt.Errorf("replay: bundle has no program name")
	}
	if b.Model == "" {
		b.Model = engine.ModelRC11
	}
	if !engine.ValidModel(b.Model) {
		return nil, fmt.Errorf("replay: bundle records memory model %q; this build implements %v — "+
			"the trace cannot be replayed under different semantics", b.Model, engine.Models())
	}
	// The top-level record is authoritative; keep the embedded options
	// consistent so Verify and ad-hoc engine.Run callers agree.
	b.Options.Model = b.Model
	return &b, nil
}

// WriteFileFS writes the bundle under dir through fsys as
// "<program>-<strategy>-seed<seed>.json" (name sanitized) and returns the
// path — the hardened durable-sink path: directory creation,
// write-to-temp-then-rename (so a SIGKILL mid-flush never leaves a torn
// bundle that a later pctwm replay chokes on), and bounded retry with
// exponential backoff on transient write errors.
func (b *Bundle) WriteFileFS(fsys checkpoint.FS, dir string) (string, error) {
	name := fmt.Sprintf("%s-%s-seed%d.json", checkpoint.Slug(b.Program), checkpoint.Slug(b.Strategy), b.Seed)
	path := filepath.Join(dir, name)
	data, err := b.Encode()
	if err != nil {
		return "", fmt.Errorf("replay: encoding bundle: %w", err)
	}
	if err := checkpoint.WriteDurable(fsys, path, append(data, '\n'), nil); err != nil {
		return "", fmt.Errorf("replay: writing bundle: %w", err)
	}
	return path, nil
}

// LoadBundle reads a bundle file.
func LoadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return DecodeBundle(data)
}

// VerifyResult is the outcome of replaying a bundle against a program.
type VerifyResult struct {
	// Outcome is the replayed execution's outcome.
	Outcome *engine.Outcome
	// Summary digests Outcome.
	Summary OutcomeSummary
	// Derails counts replay decisions that could not follow the trace
	// (non-zero means the program or engine changed since recording).
	Derails int
	// Match is true when the replay reproduced the bundle's recorded
	// outcome exactly with zero derails. Harness-panic bundles never
	// match (the panicking strategy is absent); check Diffs/Derails.
	Match bool
	// Diffs lists the summary fields that disagree (empty on match).
	Diffs []string
}

// Verify re-executes the bundle's trace against prog and compares the
// result with the recorded outcome. The bundle's embedded options are
// used verbatim, less any Context (which does not serialize), so the
// replay is deterministic.
func (b *Bundle) Verify(prog *engine.Program) (VerifyResult, error) {
	if !b.Matches(prog) {
		return VerifyResult{}, fmt.Errorf(
			"replay: program mismatch: bundle recorded %q (%d threads, %d locs), got %q (%d threads, %d locs)",
			b.Program, b.ProgramThreads, b.ProgramLocs,
			prog.Name(), prog.NumThreads(), prog.NumLocs())
	}
	trace := b.Trace
	if trace == nil {
		trace = &Trace{}
	}
	player := NewPlayer(trace)
	opts := b.Options
	opts.Context = nil
	if b.Model != "" {
		opts.Model = b.Model
	}
	o := engine.Run(prog, player, b.Seed, opts)
	res := VerifyResult{
		Outcome: o,
		Summary: Summarize(o),
		Derails: player.Derails,
	}
	res.Diffs = b.Outcome.Diff(res.Summary)
	// The recorded fingerprint digests the *original* campaign trial; it
	// is only a replay obligation when triage proved the failure
	// deterministic (for NONDETERMINISTIC bundles the trace captures the
	// diverged re-run, whose behavior legitimately differs).
	if b.BehaviorFP != 0 && o.BehaviorFP != 0 && b.Triage == TriageDeterministic &&
		o.BehaviorFP != b.BehaviorFP {
		res.Diffs = append(res.Diffs, fmt.Sprintf("behavior_fp: %#x vs %#x", b.BehaviorFP, o.BehaviorFP))
	}
	res.Match = len(res.Diffs) == 0 && res.Derails == 0 && b.HarnessPanic == ""
	return res, nil
}
