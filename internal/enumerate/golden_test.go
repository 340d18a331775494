package enumerate

// Golden gate for the explorer: for every litmus test under every
// memory model, testdata/explore_golden.json pins the leaf count, a
// digest of the behavior census (each fingerprint with its leaf count)
// and a digest of Random's exact distribution (each fingerprint with
// the bits of its probability, then the bits of the errored mass). A
// change to how the explorer walks the decision tree, or to how it
// weighs a leaf, moves one of them.
//
// Regenerate (only when an intentional change to the leaf set or the
// weights is made):
//
//	go test ./internal/enumerate -run TestExploreGolden -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"testing"

	"pctwm/internal/core"
	"pctwm/internal/engine"
	"pctwm/internal/litmus"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/explore_golden.json from the current explorer")

const exploreGoldenPath = "testdata/explore_golden.json"

// exploreGolden is one (model, test) cell of the golden file.
type exploreGolden struct {
	Leaves int    `json:"leaves"`
	Census string `json:"census"`
	Random string `json:"random"`
}

// fnv64 accumulates 64-bit FNV-1a over whole words.
type fnv64 uint64

func (h *fnv64) word(v uint64) {
	x := uint64(*h)
	for range 8 {
		x = (x ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
	*h = fnv64(x)
}

func (h fnv64) String() string { return fmt.Sprintf("%016x", uint64(h)) }

const fnvOffset fnv64 = 14695981039346656037

// exploreGoldenCell explores lt under model twice: once for the census,
// once for Random's exact distribution.
func exploreGoldenCell(t *testing.T, lt *litmus.Test, model string) exploreGolden {
	t.Helper()
	opts := engine.Options{Model: model}
	c, err := BehaviorCensus(lt.Program, opts, Config{Workers: *exploreWorkers})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Complete {
		t.Fatalf("census incomplete after %d runs", c.Runs)
	}
	census := fnvOffset
	for _, e := range c.Behaviors {
		census.word(e.FP)
		census.word(uint64(e.Leaves))
	}
	census.word(uint64(c.Skipped))
	probs, errMass, err := BehaviorProbs(lt.Program, opts, core.NewRandom())
	if err != nil {
		t.Fatal(err)
	}
	random := fnvOffset
	for _, fp := range slices.Sorted(maps.Keys(probs)) {
		random.word(fp)
		random.word(math.Float64bits(probs[fp]))
	}
	random.word(math.Float64bits(errMass))
	return exploreGolden{Leaves: c.Runs, Census: census.String(), Random: random.String()}
}

func TestExploreGolden(t *testing.T) {
	got := make(map[string]exploreGolden)
	leaves := make(map[string]int)
	for _, model := range engine.Models() {
		for _, lt := range litmus.Suite() {
			cell := exploreGoldenCell(t, lt, model)
			got[model+"/"+lt.Name] = cell
			leaves[model] += cell.Leaves
		}
	}
	t.Logf("leaves per model: %v", leaves)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(exploreGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(got), exploreGoldenPath)
		return
	}
	data, err := os.ReadFile(exploreGoldenPath)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-golden): %v", exploreGoldenPath, err)
	}
	var want map[string]exploreGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parsing %s: %v", exploreGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cells, the suite %d", len(want), len(got))
	}
	for _, key := range slices.Sorted(maps.Keys(got)) {
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden cell (regenerate with -update-golden)", key)
		} else if got[key] != w {
			t.Errorf("%s: explorer diverges from golden\n got  %+v\n want %+v", key, got[key], w)
		}
	}
}
