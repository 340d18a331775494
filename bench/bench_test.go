package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pctwm/internal/engine"
)

// smokeScale shrinks every workload to a few trials per cell.
const smokeScale = 0.02

func smokeConfig(t *testing.T, trace bool) config {
	return config{seed: 1, trace: trace, traceDir: t.TempDir(), scale: smokeScale, minReps: 1, setups: 1}
}

// TestSmoke runs every workload at a tiny size, untraced and traced: all
// checks pass, every metric is reported, the last line is the result
// line's JSON and the traced run writes its files.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, trace)
			res, err := run(w, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failures=%v", w.name, trace, res.Correct, res.Attempted, res.Failures)
			}
			var out bytes.Buffer
			if err := printLast(&out, res); err != nil {
				t.Fatal(err)
			}
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int64
				Failed    *int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(out.Bytes(), &last); err != nil || last.Failed == nil {
				t.Fatalf("%s: last line %q: %v", w.name, out.String(), err)
			}
			if len(last.Metrics) != len(res.defs) {
				t.Errorf("%s trace=%v: %d metrics in the last line, want %d", w.name, trace, len(last.Metrics), len(res.defs))
			}
			if trace {
				for _, f := range []string{"layers-", "trace-"} {
					if _, err := os.Stat(filepath.Join(cfg.traceDir, f+w.name+".json")); err != nil {
						t.Errorf("%s: %v", w.name, err)
					}
				}
			}
		}
	}
}

func hasCheck(fails []string, check string) bool {
	for _, f := range fails {
		if strings.HasPrefix(f, check+":") {
			return true
		}
	}
	return false
}

// TestBughuntOracles: with Build swapped for BuildFixed no bug is found,
// and with BuildFixed swapped for Build the fixed pass finds one.
func TestBughuntOracles(t *testing.T) {
	w, _ := workloadByName("bughunt")
	cells := prepare(w, 1, smokeScale)
	defer closeCells(cells)
	for _, c := range cells {
		c.prog = c.bench.FixedProgram()
	}
	rep := runRep(cells, &runEnv{})
	if fails := checkBughunt(cells, rep.cells); !hasCheck(fails, "every-bug-hit") {
		t.Errorf("every-bug-hit passed on the fixed programs: %v", fails)
	}

	cells = w.build(smokeScale)
	for _, c := range cells {
		b := c.bench
		b.BuildFixed = func() *engine.Program { return b.Build(0) }
	}
	if fails := fixedPass(cells); !hasCheck(fails, "fixed-clean") {
		t.Errorf("fixed-clean passed on the buggy programs: %v", fails)
	}
}

func TestModelsOracle(t *testing.T) {
	cells := buildModels(smokeScale)
	st := make([]cellStats, len(cells))
	if fails := checkModels(cells, st); len(fails) > 0 {
		t.Fatalf("no hits failed the check: %v", fails)
	}
	for i, c := range cells {
		if c.model() == engine.ModelSC {
			st[i].hits = 1
			break
		}
	}
	if fails := checkModels(cells, st); !hasCheck(fails, "sc-zero-hits") {
		t.Errorf("an sc hit passed: %v", fails)
	}
}

func TestAppsOracle(t *testing.T) {
	cells := buildApps(smokeScale)
	st := make([]cellStats, len(cells))
	for i := range st {
		st[i].hits = 1
	}
	if fails := checkApps(cells, st); len(fails) > 0 {
		t.Fatalf("every cell racing failed the check: %v", fails)
	}
	st[2].hits = 0
	if fails := checkApps(cells, st); !hasCheck(fails, "every-cell-races") {
		t.Errorf("a race-free cell passed: %v", fails)
	}
}

func TestExploreOracles(t *testing.T) {
	cells := buildExplore(1) // exhaustive cells; nothing is run
	ok := func() []cellStats {
		st := make([]cellStats, len(cells))
		for i, c := range cells {
			st[i].complete = true
			st[i].behaviors = map[string]int{engine.ModelSC: 1, engine.ModelTSO: 2, engine.ModelRC11: 3}[c.model()]
			if c.lt != nil {
				st[i].outcomes = make(map[string]int)
				exp := c.lt.Expect(c.model())
				for _, a := range append(exp.Allowed, exp.Weak...) {
					st[i].outcomes[a] = 1
				}
			}
		}
		return st
	}
	if fails := checkExplore(cells, ok()); len(fails) > 0 {
		t.Fatalf("a conforming census failed: %v", fails)
	}
	lt, weak := -1, -1
	for i, c := range cells {
		if c.lt != nil && lt < 0 && len(c.lt.Expect(c.model()).Forbidden) > 0 {
			lt = i
		}
		if c.lt != nil && weak < 0 && len(c.lt.Expect(c.model()).Weak) > 0 {
			weak = i
		}
	}
	dekkerSC := -1
	for i, c := range cells {
		if c.bench != nil && c.model() == engine.ModelSC {
			dekkerSC = i
		}
	}
	for _, c := range []struct {
		check  string
		mutate func(st []cellStats)
	}{
		{"census-complete", func(st []cellStats) { st[0].complete = false }},
		{"census-complete", func(st []cellStats) { st[0].drift = os.ErrInvalid }},
		{"census-complete", func(st []cellStats) { st[0].failed = 1 }},
		{"litmus-expect", func(st []cellStats) { st[lt].outcomes[cells[lt].lt.Expect(cells[lt].model()).Forbidden[0]] = 1 }},
		{"litmus-expect", func(st []cellStats) { clear(st[weak].outcomes) }},
		{"dekker-hierarchy", func(st []cellStats) { st[dekkerSC].behaviors = 9 }},
	} {
		st := ok()
		c.mutate(st)
		if fails := checkExplore(cells, st); !hasCheck(fails, c.check) {
			t.Errorf("%s passed a broken census: %v", c.check, fails)
		}
	}
}

func TestCheckedOracle(t *testing.T) {
	cells := buildChecked(smokeScale)
	st := make([]cellStats, len(cells))
	if fails := checkChecked(cells, st); len(fails) > 0 {
		t.Fatalf("clean checks failed: %v", fails)
	}
	st[0].trials, st[0].axiomExecs, st[0].violations = 3, 3, 1
	if fails := checkChecked(cells, st); !hasCheck(fails, "axiom-clean") {
		t.Errorf("a violation passed: %v", fails)
	}
	st[0].violations, st[0].axiomExecs = 0, 2
	if fails := checkChecked(cells, st); !hasCheck(fails, "axiom-clean") {
		t.Errorf("an unchecked execution passed: %v", fails)
	}
}

func TestRepsAgree(t *testing.T) {
	a := repStats{cells: []cellStats{{trials: 10, events: 100, hits: 3}}}
	b := repStats{cells: []cellStats{{trials: 10, events: 101, hits: 3}}}
	if fails := repsAgree("reps-deterministic", a, a, 1); len(fails) > 0 {
		t.Errorf("equal reps disagree: %v", fails)
	}
	if fails := repsAgree("trace-transparent", a, b, 1); !hasCheck(fails, "trace-transparent") {
		t.Errorf("reps with different events agree: %v", fails)
	}
}

// TestKeepMin: every time keeps its fastest rep, and a rep that timed
// other trials than the first is refused.
func TestKeepMin(t *testing.T) {
	var m timings
	for _, rep := range []timings{
		{lat: []int64{5, 9, 4}, eng: []int64{3, 8, 2}, rest: []int64{7}},
		{lat: []int64{6, 2, 4}, eng: []int64{4, 1, 3}, rest: []int64{5}},
	} {
		if err := m.keepMin(&rep); err != nil {
			t.Fatal(err)
		}
	}
	want := timings{lat: []int64{5, 2, 4}, eng: []int64{3, 1, 2}, rest: []int64{5}}
	if !slices.Equal(m.lat, want.lat) || !slices.Equal(m.eng, want.eng) || !slices.Equal(m.rest, want.rest) {
		t.Errorf("fastest times %+v, want %+v", m, want)
	}
	if err := m.keepMin(&timings{lat: []int64{1, 1}, eng: []int64{1, 1}, rest: []int64{1}}); err == nil {
		t.Error("a rep with one trial fewer was accepted")
	}
}

// TestEqualEventsGuard: the ablation guard fires when a variant ran other
// schedules than the rest.
func TestEqualEventsGuard(t *testing.T) {
	same := []namedTotals{{"off", 10, 200}, {"races_on", 10, 200}, {"record_on", 10, 200}}
	if err := equalEvents(same); err != nil {
		t.Errorf("equal totals: %v", err)
	}
	for _, bad := range []namedTotals{{"coverage_on", 10, 201}, {"coverage_on", 11, 200}} {
		if err := equalEvents(append(same, bad)); err == nil || !strings.Contains(err.Error(), "coverage_on") {
			t.Errorf("mismatch %+v: %v", bad, err)
		}
	}
}
