package axiom

// Golden digests of the checker's verdicts. Recordings of the litmus suite
// under every model and of the paper benchmarks under PCTWM, each with
// seeded mutants (rf redirected to an earlier same-location write, a
// write's stamp changed, a po index shifted, an access order changed, a
// read value bumped), are checked under rc11, tso and sc. Per cell and
// checking model, testdata/axiom_golden.json holds a digest of the sorted
// violation strings, the hb relation and the sw list of every recording,
// so any change to the checker's answers on either consistent or broken
// executions shows up here.
//
// Regenerate (only when an intentional change to the axioms is made):
//
//	go test ./internal/axiom -run TestCheckMutantGolden -update-golden

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pctwm/internal/benchprog"
	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
	"pctwm/internal/memmodel"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/axiom_golden.json from the current checker")

const axiomGoldenPath = "testdata/axiom_golden.json"

// mutantsPerRecording is how many seeded mutants each recording yields.
const mutantsPerRecording = 3

// goldenCell is one program × recording model whose executions feed the
// digests.
type goldenCell struct {
	key      string
	prog     *engine.Program
	opts     engine.Options
	strategy func() engine.Strategy
	seeds    int
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, model := range engine.Models() {
		for _, lt := range litmus.Suite() {
			cells = append(cells, goldenCell{
				key:      lt.Name + "@" + model,
				prog:     lt.Program,
				opts:     engine.Options{Model: model, Record: true},
				strategy: func() engine.Strategy { return core.NewRandom() },
				seeds:    50,
			})
		}
	}
	for _, b := range benchprog.All() {
		b := b
		opts := b.Options()
		opts.Record = true
		cells = append(cells, goldenCell{
			key:      b.Name + "@" + engine.ModelRC11,
			prog:     b.Program(0),
			opts:     opts,
			strategy: func() engine.Strategy { return core.NewPCTWM(b.Depth, 1, 20) },
			seeds:    150,
		})
	}
	return cells
}

// cloneRecording copies rec's event list so a mutant can edit it; the
// other relations are shared read-only.
func cloneRecording(rec *engine.Recording) *engine.Recording {
	c := *rec
	c.Events = slices.Clone(rec.Events)
	return &c
}

// pick returns a uniformly chosen event index satisfying ok, or -1.
func pick(rng *rand.Rand, evs []memmodel.Event, ok func(memmodel.Event) bool) int {
	var idx []int
	for i, ev := range evs {
		if ok(ev) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[rng.Intn(len(idx))]
}

func plusMinusOne(rng *rand.Rand) int { return 2*rng.Intn(2) - 1 }

// mutate returns a copy of rec with one seeded defect and the defect's
// name. It tries mutation kinds in a seeded order until one applies.
func mutate(rec *engine.Recording, rng *rand.Rand) (*engine.Recording, string) {
	m := cloneRecording(rec)
	evs := m.Events
	for _, kind := range rng.Perm(5) {
		switch kind {
		case 0: // rf redirected to an earlier same-location write
			i := pick(rng, evs, func(ev memmodel.Event) bool {
				return ev.Label.Kind.Reads() && ev.ReadsFrom > 0
			})
			if i < 0 {
				continue
			}
			r := evs[i]
			j := pick(rng, evs[:r.ReadsFrom], func(w memmodel.Event) bool {
				return w.Label.Kind.Writes() && w.Label.Loc == r.Label.Loc
			})
			if j < 0 {
				continue
			}
			evs[i].ReadsFrom = memmodel.EventID(j)
			return m, "rf-earlier"
		case 1: // a write's stamp changed
			i := pick(rng, evs, func(ev memmodel.Event) bool { return ev.Label.Kind.Writes() })
			if i < 0 {
				continue
			}
			evs[i].Stamp += memmodel.TS(plusMinusOne(rng))
			return m, "stamp"
		case 2: // a po index shifted
			i := pick(rng, evs, func(memmodel.Event) bool { return true })
			if i < 0 {
				continue
			}
			evs[i].Index += plusMinusOne(rng)
			return m, "po-index"
		case 3: // an access order changed
			i := pick(rng, evs, func(ev memmodel.Event) bool {
				return ev.Label.Kind.IsMemoryAccess() || ev.Label.Kind == memmodel.KindFence
			})
			if i < 0 {
				continue
			}
			old := evs[i].Label.Order
			evs[i].Label.Order = memmodel.Order((int(old) + 1 + rng.Intn(int(memmodel.SeqCst))) % int(memmodel.SeqCst+1))
			return m, "order"
		case 4: // a read value bumped
			i := pick(rng, evs, func(ev memmodel.Event) bool { return ev.Label.Kind.Reads() })
			if i < 0 {
				continue
			}
			evs[i].Label.RVal++
			return m, "rval"
		}
	}
	return m, "none"
}

// goldenDigest folds one recording's checker answers into h, one hash per
// checking model; it returns how many models reported violations.
func goldenDigest(hs map[string]hash.Hash64, rec *engine.Recording, label string) int {
	g, err := FromRecording(rec)
	violating := 0
	for _, model := range engine.Models() {
		h := hs[model]
		fmt.Fprintf(h, "%s\n", label)
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			continue
		}
		var msgs []string
		for _, v := range g.CheckModel(model) {
			msgs = append(msgs, v.String())
		}
		if len(msgs) > 0 {
			violating++
		}
		slices.Sort(msgs)
		for _, s := range msgs {
			fmt.Fprintf(h, "%s\n", s)
		}
		var buf [8]byte
		n := len(g.Events)
		for b := 0; b < n; b++ {
			var word uint64
			for a := 0; a < n; a++ {
				if g.HB(memmodel.EventID(a), memmodel.EventID(b)) {
					word |= 1 << (a % 64)
				}
				if a%64 == 63 || a == n-1 {
					binary.LittleEndian.PutUint64(buf[:], word)
					h.Write(buf[:])
					word = 0
				}
			}
		}
		fmt.Fprintf(h, "sw %v\n", g.SW())
	}
	return violating
}

// computeGolden records cell's executions, mutates each, and returns the
// per-model digests with the number of recordings and violating
// (recording, model) pairs.
func computeGolden(c goldenCell) (digests map[string]string, recs, violating int) {
	hs := map[string]hash.Hash64{}
	for _, model := range engine.Models() {
		hs[model] = fnv.New64a()
	}
	r := engine.NewRunner(c.prog, c.opts)
	defer r.Close()
	strat := c.strategy()
	for seed := int64(0); seed < int64(c.seeds); seed++ {
		rec := r.Run(strat, seed).Recording
		violating += goldenDigest(hs, rec, fmt.Sprintf("seed %d", seed))
		recs++
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < mutantsPerRecording; k++ {
			m, kind := mutate(rec, rng)
			violating += goldenDigest(hs, m, fmt.Sprintf("seed %d mutant %d %s", seed, k, kind))
			recs++
		}
	}
	digests = map[string]string{}
	for model, h := range hs {
		digests[model] = fmt.Sprintf("%016x", h.Sum64())
	}
	return digests, recs, violating
}

// TestCheckMutantGolden pins the checker's verdicts, hb and sw on engine
// recordings and their mutants to testdata/axiom_golden.json.
func TestCheckMutantGolden(t *testing.T) {
	cells := goldenCells()
	got := map[string]map[string]string{}
	recs, violating := 0, 0
	for _, c := range cells {
		d, n, v := computeGolden(c)
		got[c.key] = d
		recs += n
		violating += v
	}
	t.Logf("%d recordings (mutants included), %d violating (recording, model) pairs", recs, violating)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatalf("encoding golden digests: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(axiomGoldenPath), 0o755); err != nil {
			t.Fatalf("creating testdata dir: %v", err)
		}
		if err := os.WriteFile(axiomGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", axiomGoldenPath, err)
		}
		t.Logf("wrote %d cells to %s", len(got), axiomGoldenPath)
		return
	}

	data, err := os.ReadFile(axiomGoldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-golden): %v", axiomGoldenPath, err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", axiomGoldenPath, err)
	}
	if len(want) != len(cells) {
		t.Errorf("golden has %d cells, the test builds %d (regenerate with -update-golden)", len(want), len(cells))
	}
	for _, c := range cells {
		for _, model := range engine.Models() {
			if g, w := got[c.key][model], want[c.key][model]; g != w {
				t.Errorf("%s checked under %s: digest %s, golden %s", c.key, model, g, w)
			}
		}
	}
}
