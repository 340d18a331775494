package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the "exclusive"
// method that Python's statistics.quantiles uses by default: rank
// h = q·(n+1), linear interpolation between the neighbouring order
// statistics. Where Python extrapolates past the smallest or largest
// value, it returns that value. It returns NaN for an empty sample. xs
// is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	h := q * float64(n+1)
	if h <= 1 {
		return s[0]
	}
	if h >= float64(n) {
		return s[n-1]
	}
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

// median is the 0.5-quantile (the middle value, or the mean of the two
// middle values).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileNs returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// per-trial latencies in nanoseconds, sorting ns in place. It returns 0
// for an empty sample.
func percentileNs(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	rank := int(math.Ceil(p / 100 * float64(len(ns))))
	rank = min(max(rank, 1), len(ns))
	return float64(ns[rank-1])
}

// summary is the digest of one metric's samples within a run.
type summary struct {
	Unit string `json:"unit"`
	// Value is what the run reports (see pick).
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, samples []float64) summary {
	return summary{
		Unit:    unit,
		Median:  median(samples),
		P25:     quantile(samples, 0.25),
		P75:     quantile(samples, 0.75),
		N:       len(samples),
		Samples: samples,
	}
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs(s.P75-s.P25) / math.Abs(s.Median)
}
