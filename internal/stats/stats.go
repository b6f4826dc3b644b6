// Package stats provides the small statistics kit behind repro.Report and
// cmd/sweep: summary statistics of convergence-time samples and
// least-squares fits for extracting scaling exponents from n-sweeps.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics of one sample.
type Summary struct {
	Count  int
	Mean   float64
	Std    float64
	Min    float64
	Median float64
	P90    float64
	Max    float64
}

// Summarize computes the Summary of xs. It panics on an empty sample —
// callers aggregate experiment results and must not silently drop cells.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{
		Count:  len(xs),
		Mean:   Mean(xs),
		Std:    StdDev(xs),
		Min:    xs[0],
		Max:    xs[0],
		Median: Quantile(xs, 0.5),
		P90:    Quantile(xs, 0.9),
	}
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g med=%.3g p90=%.3g max=%.3g",
		s.Count, s.Mean, s.Median, s.P90, s.Max)
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n−1 in the denominator),
// or 0 for samples smaller than two.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with linear interpolation
// between order statistics.
func Quantile(xs []float64, q float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It panics when the inputs differ in length or have fewer than two
// points.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic(fmt.Sprintf("stats: bad fit input lengths %d, %d", len(x), len(y)))
	}
	mx, my := Mean(x), Mean(y)
	num, den := 0.0, 0.0
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	slope = num / den
	return slope, my - slope*mx
}

// PowerLawExponent fits y ≈ a·x^b by least squares in log-log space and
// returns b — the scaling exponent of a convergence-time sweep.
func PowerLawExponent(x, y []float64) float64 {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	slope, _ := LinearFit(lx, ly)
	return slope
}

// RSquared returns the coefficient of determination of the linear fit of y
// against x.
func RSquared(x, y []float64) float64 {
	slope, intercept := LinearFit(x, y)
	my := Mean(y)
	ssRes, ssTot := 0.0, 0.0
	for i := range x {
		pred := slope*x[i] + intercept
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - my) * (y[i] - my)
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}
