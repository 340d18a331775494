package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of an empty sample is %v, want NaN", quantile(nil, 0.5))
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := quantile([]float64{7}, q); got != 7 {
			t.Errorf("quantile([7], %v) = %v, want 7", q, got)
		}
	}
	// Python: statistics.quantiles([1..4], n=4) == [1.25, 2.5, 3.75] and
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.25, 1.25},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.75, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.25, 2.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.75, 8.25},
		// Ranks beyond the sample clamp instead of extrapolating.
		{[]float64{1, 2}, 0.25, 1},
		{[]float64{1, 2}, 0.75, 2},
		{[]float64{1, 2}, 0.5, 1.5},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd sample = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even sample = %v, want 2.5", got)
	}
}

func TestPercentileNs(t *testing.T) {
	if got := percentileNs(nil, 99); got != 0 {
		t.Errorf("percentile of no latencies = %v, want 0", got)
	}
	if got := percentileNs([]int64{42}, 99); got != 42 {
		t.Errorf("p99 of one latency = %v, want 42", got)
	}
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentileNs(ns, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := summarize("s", []float64{1, 1, 1}).spread(); got != 0 {
		t.Errorf("spread of equal samples = %v, want 0", got)
	}
	if got := summarize("s", []float64{0, 0}).spread(); !math.IsInf(got, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", got)
	}
}
