package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (NaN for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R default).
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

// RMS returns the root-mean-square of xs.
func RMS(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return math.Sqrt(s / float64(len(xs)))
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}
