package harness_test

// Golden-digest gate for the memory-model backend refactor: with the
// default rc11 backend the engine must produce bit-identical schedules
// and outcomes to the pre-refactor view machine at equal seeds. The
// digests in testdata/rc11_golden.json were captured from the monolithic
// engine immediately before the MemoryModel extraction; every litmus
// test and every paper benchmark is replayed under the random and PCTWM
// strategies for 200 seeds and the full execution (outcome counters,
// final state, recorded event stream with rf/mo/SC order, spawn/join
// links) is hashed per seed. Any divergence pinpoints the first
// (program, strategy, seed) whose trace changed.
//
// TestModelGoldenDigests pins the tso and sc backends the same way, from
// testdata/model_golden.json (keys "tso/<cell>" and "sc/<cell>").
//
// Regenerate (only when an intentional semantic change is made):
//
//	go test ./internal/harness -run 'TestRC11GoldenDigests|TestModelGoldenDigests' -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden digest files in testdata from the current engine")

const goldenSeeds = 200

// fnv1a accumulates 64-bit FNV-1a.
type fnv1a uint64

func newFNV() fnv1a { return 14695981039346656037 }

func (h *fnv1a) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
	*h = fnv1a(x)
}

func (h *fnv1a) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * 1099511628211
	}
	x = (x ^ 0xff) * 1099511628211 // terminator: "ab","c" != "a","bc"
	*h = fnv1a(x)
}

// digestOutcome hashes everything schedule-determined about one run.
func digestOutcome(o *engine.Outcome) uint64 {
	h := newFNV()
	h.word(uint64(o.Steps))
	h.word(uint64(o.Events))
	h.word(uint64(o.CommEvents))
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	h.word(b2u(o.BugHit))
	h.word(b2u(o.Aborted))
	h.word(b2u(o.Deadlocked))
	for _, m := range o.BugMessages {
		h.str(m)
	}
	if o.Err != nil {
		h.word(uint64(o.Err.Kind))
		h.word(uint64(o.Err.TID))
		h.str(o.Err.Msg)
	}
	h.word(uint64(len(o.Races)))
	keys := make([]string, 0, len(o.FinalValues))
	for k := range o.FinalValues {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.str(k)
		h.word(uint64(o.FinalValues[k]))
	}
	if r := o.Recording; r != nil {
		for i := range r.Events {
			ev := &r.Events[i]
			h.word(uint64(ev.ID))
			h.word(uint64(ev.TID))
			h.word(uint64(ev.Index))
			h.word(uint64(ev.Label.Kind))
			h.word(uint64(ev.Label.Order))
			h.word(uint64(ev.Label.Loc))
			h.word(uint64(ev.Label.RVal))
			h.word(uint64(ev.Label.WVal))
			h.word(uint64(ev.Stamp))
			h.word(uint64(ev.ReadsFrom))
		}
		for _, id := range r.SCOrder {
			h.word(uint64(id))
		}
		for _, l := range r.SpawnLinks {
			h.word(uint64(l.From))
			h.word(uint64(l.Child))
		}
		for _, l := range r.JoinLinks {
			h.word(uint64(l.Child))
			h.word(uint64(l.To))
		}
	}
	return uint64(h)
}

// goldenCase is one (program, options, strategy) cell of the matrix.
type goldenCase struct {
	key   string
	prog  *engine.Program
	opts  engine.Options
	mk    func() engine.Strategy
	seeds int
}

// goldenCases builds the matrix under model; keys carry prefix.
func goldenCases(model, prefix string) []goldenCase {
	strategies := func(depth int) map[string]func() engine.Strategy {
		if depth < 1 {
			depth = 1
		}
		return map[string]func() engine.Strategy{
			"random": func() engine.Strategy { return core.NewRandom() },
			"pctwm":  func() engine.Strategy { return core.NewPCTWM(depth, 1, 100) },
		}
	}
	var cases []goldenCase
	for _, lt := range litmus.Suite() {
		for sname, mk := range strategies(1) {
			cases = append(cases, goldenCase{
				key: prefix + lt.Name + "/" + sname, prog: lt.Program,
				opts: engine.Options{Model: model}, mk: mk, seeds: goldenSeeds,
			})
		}
	}
	for _, b := range benchprog.All() {
		for sname, mk := range strategies(b.Depth) {
			opts := b.Options()
			opts.Model = model
			cases = append(cases, goldenCase{
				key: prefix + b.Name + "/" + sname, prog: b.Program(0),
				opts: opts, mk: mk, seeds: goldenSeeds,
			})
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].key < cases[j].key })
	return cases
}

func computeDigests(c goldenCase) []string {
	opts := c.opts
	opts.Record = true
	r := engine.NewRunner(c.prog, opts)
	defer r.Close()
	out := make([]string, c.seeds)
	for seed := 1; seed <= c.seeds; seed++ {
		o := r.Run(c.mk(), int64(seed))
		out[seed-1] = fmt.Sprintf("%016x", digestOutcome(o))
	}
	return out
}

func TestRC11GoldenDigests(t *testing.T) {
	checkGolden(t, "testdata/rc11_golden.json", goldenCases(engine.ModelRC11, ""))
}

func TestModelGoldenDigests(t *testing.T) {
	var cases []goldenCase
	for _, model := range []string{engine.ModelTSO, engine.ModelSC} {
		cases = append(cases, goldenCases(model, model+"/")...)
	}
	checkGolden(t, "testdata/model_golden.json", cases)
}

// checkGolden compares every case's digests with the golden file at
// goldenPath, or rewrites the file under -update-golden.
func checkGolden(t *testing.T, goldenPath string, cases []goldenCase) {
	if testing.Short() {
		t.Skip("golden digest matrix is not run in -short mode")
	}

	if *updateGolden {
		golden := make(map[string][]string, len(cases))
		for _, c := range cases {
			golden[c.key] = computeDigests(c)
		}
		data, err := json.MarshalIndent(golden, "", " ")
		if err != nil {
			t.Fatalf("encoding golden digests: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("creating testdata dir: %v", err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", goldenPath, err)
		}
		t.Logf("wrote %d cells to %s", len(cases), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-golden): %v", goldenPath, err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}

	for _, c := range cases {
		c := c
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[c.key]
			if !ok {
				t.Fatalf("no golden digests for %s (regenerate with -update-golden)", c.key)
			}
			got := computeDigests(c)
			if len(got) != len(want) {
				t.Fatalf("seed count changed: got %d, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d: trace digest diverged from pre-refactor engine: got %s, want %s", i+1, got[i], want[i])
				}
			}
		})
	}
}
