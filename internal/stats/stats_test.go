package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWilsonBasics(t *testing.T) {
	low, high := Wilson95(50, 100)
	if low >= 50 || high <= 50 {
		t.Fatalf("interval [%v, %v] should bracket 50%%", low, high)
	}
	if high-low > 25 {
		t.Fatalf("interval too wide for n=100: [%v, %v]", low, high)
	}
	// Degenerate cases stay in range and never NaN.
	for _, c := range [][2]int{{0, 10}, {10, 10}, {0, 0}} {
		lo, hi := Wilson95(c[0], c[1])
		if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 || hi > 100 || lo > hi {
			t.Fatalf("Wilson(%d,%d) = [%v, %v]", c[0], c[1], lo, hi)
		}
	}
}

// TestWilsonProperties: property-based sanity — the interval contains the
// point estimate and shrinks with n.
func TestWilsonProperties(t *testing.T) {
	prop := func(hitsRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		hits := int(hitsRaw) % (n + 1)
		lo, hi := Wilson95(hits, n)
		p := 100 * float64(hits) / float64(n)
		if lo > p+1e-9 || hi < p-1e-9 {
			return false
		}
		lo10, hi10 := Wilson95(hits*10, n*10)
		return hi10-lo10 <= hi-lo+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestWilsonEdgeCases pins the out-of-domain behavior: hits clamped into
// [0, n], non-positive z rejected with the vacuous interval, and tiny n
// well-behaved. Before the clamp, hits > n produced p > 1 and a NaN
// margin, and z < 0 produced an inverted interval (low > high).
func TestWilsonEdgeCases(t *testing.T) {
	cases := []struct {
		name              string
		hits, n           int
		z                 float64
		wantLow, wantHigh float64 // -1 = only check well-formedness
	}{
		{"hits above n clamps to n", 15, 10, 1.96, -1, -1},
		{"negative hits clamps to 0", -3, 10, 1.96, -1, -1},
		{"z zero rejected", 5, 10, 0, 0, 100},
		{"z negative rejected", 5, 10, -1.96, 0, 100},
		{"n zero", 0, 0, 1.96, 0, 100},
		{"n negative", 2, -5, 1.96, 0, 100},
		{"n one miss", 0, 1, 1.96, -1, -1},
		{"n one hit", 1, 1, 1.96, -1, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lo, hi := Wilson(c.hits, c.n, c.z)
			if math.IsNaN(lo) || math.IsNaN(hi) || lo < 0 || hi > 100 || lo > hi {
				t.Fatalf("Wilson(%d,%d,%v) = [%v, %v]: malformed interval", c.hits, c.n, c.z, lo, hi)
			}
			if c.wantLow >= 0 && (lo != c.wantLow || hi != c.wantHigh) {
				t.Fatalf("Wilson(%d,%d,%v) = [%v, %v], want [%v, %v]", c.hits, c.n, c.z, lo, hi, c.wantLow, c.wantHigh)
			}
		})
	}
	// Clamped hits must agree with the in-range equivalent.
	lo1, hi1 := Wilson(15, 10, 1.96)
	lo2, hi2 := Wilson(10, 10, 1.96)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("clamped Wilson(15,10) = [%v, %v] != Wilson(10,10) = [%v, %v]", lo1, hi1, lo2, hi2)
	}
}

// TestChiSquareCDF checks the CDF against standard table quantiles: the
// 95th percentile of chi-square with df degrees of freedom.
func TestChiSquareCDF(t *testing.T) {
	quantiles95 := map[int]float64{
		1:  3.841,
		2:  5.991,
		5:  11.070,
		10: 18.307,
		23: 35.172,
	}
	for df, q := range quantiles95 {
		if got := ChiSquareCDF(q, df); math.Abs(got-0.95) > 5e-4 {
			t.Errorf("ChiSquareCDF(%v, %d) = %v, want ≈0.95", q, df, got)
		}
	}
	if got := ChiSquareCDF(0, 3); got != 0 {
		t.Errorf("CDF at 0 must be 0, got %v", got)
	}
	if got := ChiSquareCDF(1e6, 3); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF at +inf-ish must be 1, got %v", got)
	}
	if got := ChiSquareCDF(5, 0); got != 0 {
		t.Errorf("df < 1 must return 0, got %v", got)
	}
	if p := ChiSquareP(3.841, 1); math.Abs(p-0.05) > 5e-4 {
		t.Errorf("ChiSquareP(3.841, 1) = %v, want ≈0.05", p)
	}
	// Monotone in x, for a few dfs.
	for _, df := range []int{1, 4, 30} {
		prev := -1.0
		for x := 0.5; x < 60; x += 0.5 {
			v := ChiSquareCDF(x, df)
			if v < prev-1e-12 || v < 0 || v > 1 {
				t.Fatalf("CDF not monotone/in-range at df=%d x=%v: %v after %v", df, x, v, prev)
			}
			prev = v
		}
	}
}

// TestGAndChiSquareStats: G is 0 for a perfect fit and small and
// positive on a near-null sample; gross misfit is overwhelmingly
// significant under the chi-square p-value.
func TestGAndChiSquareStats(t *testing.T) {
	obs := []int{25, 25, 25, 25}
	exp := []float64{25, 25, 25, 25}
	if g := GStat(obs, exp); g != 0 {
		t.Fatalf("GStat perfect fit = %v", g)
	}
	obs2 := []int{28, 22, 24, 26}
	if g := GStat(obs2, exp); g <= 0 || ChiSquareP(g, 3) < 0.5 {
		t.Fatalf("near-null sample: G=%v should be small and positive", g)
	}
	skew := []int{97, 1, 1, 1}
	if g := GStat(skew, exp); ChiSquareP(g, 3) > 1e-6 {
		t.Fatalf("gross misfit should be overwhelmingly significant, G=%v p=%v", g, ChiSquareP(g, 3))
	}
	// Empty observed bins contribute 0 to G.
	if g := GStat([]int{0, 100}, []float64{50, 50}); math.IsNaN(g) || math.IsInf(g, 0) {
		t.Fatalf("empty bin produced %v", g)
	}
}
