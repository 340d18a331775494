package replay

import (
	"strings"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/memmodel"
)

// lostUpdateProgram builds a two-thread read-modify-write race whose lost
// update (final count 1 instead of 2) is reachable under every memory
// model — plain scheduling nondeterminism suffices — so bundle tests can
// find a failing trace on rc11, sc and tso alike.
func lostUpdateProgram() *engine.Program {
	p := engine.NewProgram("lost-update")
	c := p.Loc("count", 0)
	body := func(t *engine.Thread) {
		v := t.Load(c, memmodel.Relaxed)
		t.Store(c, v+1, memmodel.Relaxed)
	}
	p.AddThread(body)
	p.AddThread(body)
	return p
}

func lostUpdate(o *engine.Outcome) bool { return o.FinalValues["count"] < 2 }

// TestBundleModelRoundTrip: a bundle written under each backend records
// the model, survives encode/decode, and Verify replays it under the
// recorded semantics with a matching outcome.
func TestBundleModelRoundTrip(t *testing.T) {
	for _, model := range engine.Models() {
		model := model
		t.Run(model, func(t *testing.T) {
			prog := lostUpdateProgram()
			opts := engine.Options{Model: model}
			trace, found, ok := findAndRecord(prog,
				func() engine.Strategy { return core.NewRandom() },
				lostUpdate, 500, 3, opts)
			if !ok {
				t.Fatalf("no failing execution under %s", model)
			}
			bundle := NewBundle(prog, "random", 3, opts)
			bundle.Trace = trace
			bundle.Outcome = Summarize(found)
			bundle.Triage = TriageDeterministic
			if bundle.Model != model {
				t.Fatalf("NewBundle recorded model %q, want %q", bundle.Model, model)
			}

			data, err := bundle.Encode()
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeBundle(data)
			if err != nil {
				t.Fatal(err)
			}
			if back.Model != model || back.Options.Model != model {
				t.Fatalf("round trip lost the model: top=%q options=%q", back.Model, back.Options.Model)
			}
			res, err := back.Verify(lostUpdateProgram())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("replay under %s diverged: derails=%d diffs=%v", model, res.Derails, res.Diffs)
			}
		})
	}
}

// TestBundleModelDefaults: an empty model in the writer's options is
// recorded as rc11 (the engine default).
func TestBundleModelDefaults(t *testing.T) {
	bundle := NewBundle(lostUpdateProgram(), "random", 1, engine.Options{})
	if bundle.Model != engine.ModelRC11 {
		t.Fatalf("default model = %q, want %q", bundle.Model, engine.ModelRC11)
	}
}

// TestBundleLegacyVersionUpgrades: a version-1 bundle (written before
// model selection existed) decodes as rc11. Its options carry the
// retired "Baton" scheduler switch, as every bundle written before the
// scheduler was unified does; the field is ignored.
func TestBundleLegacyVersionUpgrades(t *testing.T) {
	legacy := []byte(`{"version": 1, "program": "dekker", "program_threads": 2,
		"program_locs": 3, "strategy": "random", "seed": 7,
		"options": {"Baton": true}, "outcome": {"steps": 0, "events": 0, "comm_events": 0, "races": 0},
		"first_outcome": {"steps": 0, "events": 0, "comm_events": 0, "races": 0},
		"triage": "DETERMINISTIC", "written_at": "2026-01-01T00:00:00Z"}`)
	b, err := DecodeBundle(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if b.Model != engine.ModelRC11 || b.Options.Model != engine.ModelRC11 {
		t.Fatalf("legacy bundle model = %q / %q, want rc11", b.Model, b.Options.Model)
	}
}

// TestBundleUnknownModelRefused: a bundle recording a model this build
// does not implement fails to decode with a clear error — not a panic,
// and never a misleading divergence report from replaying under the
// wrong semantics.
func TestBundleUnknownModelRefused(t *testing.T) {
	data := []byte(`{"version": 2, "program": "dekker", "program_threads": 2,
		"program_locs": 3, "strategy": "random", "seed": 7, "model": "ppc",
		"options": {"model": "ppc"},
		"outcome": {"steps": 0, "events": 0, "comm_events": 0, "races": 0},
		"first_outcome": {"steps": 0, "events": 0, "comm_events": 0, "races": 0},
		"triage": "DETERMINISTIC", "written_at": "2026-01-01T00:00:00Z"}`)
	_, err := DecodeBundle(data)
	if err == nil {
		t.Fatal("unknown model accepted")
	}
	if !strings.Contains(err.Error(), `"ppc"`) || !strings.Contains(err.Error(), "rc11") {
		t.Fatalf("error should name the offending and supported models, got: %v", err)
	}
}

// TestBundleFutureVersionRefused: an unknown format version is refused
// with both readable versions named.
func TestBundleFutureVersionRefused(t *testing.T) {
	data := []byte(`{"version": 99, "program": "x"}`)
	_, err := DecodeBundle(data)
	if err == nil {
		t.Fatal("future version accepted")
	}
	if !strings.Contains(err.Error(), "99") {
		t.Fatalf("error should name the version, got: %v", err)
	}
}
