// Package stats provides the small statistical toolbox the evaluation
// uses: Wilson score confidence intervals for bug hitting rates and the
// chi-square and G statistics of the conformance checks.
package stats

import "math"

// Wilson returns the Wilson score interval (low, high), in percent, for
// observing hits successes in n trials at the given z (1.96 ≈ 95%
// confidence). It is well-behaved for rates near 0% and 100%, unlike the
// normal approximation.
//
// Out-of-domain inputs are handled conservatively rather than producing
// NaN or inverted intervals: hits is clamped into [0, n], and a
// non-positive z (no confidence level at all) or non-positive n yields
// the vacuous interval (0, 100).
func Wilson(hits, n int, z float64) (low, high float64) {
	if n <= 0 || z <= 0 {
		return 0, 100
	}
	if hits < 0 {
		hits = 0
	}
	if hits > n {
		hits = n
	}
	p := float64(hits) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := p + z2/(2*nn)
	margin := z * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	low = 100 * (center - margin) / denom
	high = 100 * (center + margin) / denom
	if low < 0 {
		low = 0
	}
	if high > 100 {
		high = 100
	}
	return low, high
}

// Wilson95 is Wilson at 95% confidence.
func Wilson95(hits, n int) (low, high float64) { return Wilson(hits, n, 1.96) }

// ChiSquareCDF returns P(X ≤ x) for a chi-square distribution with df
// degrees of freedom — the regularized lower incomplete gamma function
// P(df/2, x/2). Out-of-domain inputs (df < 1, x ≤ 0) return 0.
func ChiSquareCDF(x float64, df int) float64 {
	if df < 1 || x <= 0 || math.IsNaN(x) {
		return 0
	}
	return regIncGammaLower(float64(df)/2, x/2)
}

// ChiSquareP returns the upper-tail p-value P(X ≥ x) of a chi-square
// statistic with df degrees of freedom: the probability, under the null
// hypothesis, of a statistic at least as extreme as the observed one.
func ChiSquareP(x float64, df int) float64 {
	if df < 1 {
		return 1
	}
	return 1 - ChiSquareCDF(x, df)
}

// regIncGammaLower computes the regularized lower incomplete gamma
// function P(a, x) = γ(a, x)/Γ(a) for a > 0, x ≥ 0, via the standard
// series expansion (x < a+1) or continued fraction (x ≥ a+1); both
// converge to near machine precision for the chi-square range used here.
func regIncGammaLower(a, x float64) float64 {
	const (
		maxIter = 500
		eps     = 1e-14
		tiny    = 1e-300
	)
	if x <= 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series: P(a,x) = e^{-x} x^a / Γ(a) · Σ_{n≥0} x^n / (a(a+1)…(a+n)).
		ap := a
		sum := 1 / a
		term := sum
		for i := 0; i < maxIter; i++ {
			ap++
			term *= x / ap
			sum += term
			if math.Abs(term) < math.Abs(sum)*eps {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a,x) (modified Lentz); P = 1 − Q.
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}

// ChiSquareStat returns Pearson's chi-square statistic Σ (obs−exp)²/exp
// over paired observed counts and expected counts. Bins with
// non-positive expectation are skipped (the caller is expected to pool
// them; see the validity rule of thumb exp ≥ 5 per bin).
func ChiSquareStat(obs []int, exp []float64) float64 {
	var x float64
	for i, e := range exp {
		if i >= len(obs) || e <= 0 {
			continue
		}
		d := float64(obs[i]) - e
		x += d * d / e
	}
	return x
}

// GStat returns the G-test (log-likelihood ratio) statistic
// 2·Σ obs·ln(obs/exp) over paired observed counts and expected counts.
// Empty observed bins contribute 0 (the limit of x·ln x at 0); bins with
// non-positive expectation are skipped. Under the null hypothesis G is
// asymptotically chi-square distributed with the same degrees of freedom
// as Pearson's statistic.
func GStat(obs []int, exp []float64) float64 {
	var g float64
	for i, e := range exp {
		if i >= len(obs) || e <= 0 || obs[i] == 0 {
			continue
		}
		o := float64(obs[i])
		g += o * math.Log(o/e)
	}
	return 2 * g
}
