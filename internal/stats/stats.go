// Package stats provides the small statistical helpers the experiments use:
// empirical CDFs, percentiles, means/standard deviations, and the paper's
// stretch ratio (§II-B: slowest over fastest transfer for a router pair).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation (0 for fewer than two
// samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between order statistics. Empty input yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // cumulative probability in (0,1]
}

// CDF returns the empirical CDF of xs as sorted step points.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := make([]CDFPoint, 0, len(s))
	n := float64(len(s))
	for i, x := range s {
		// Collapse duplicate values into the highest cumulative step.
		if i+1 < len(s) && s[i+1] == x {
			continue
		}
		out = append(out, CDFPoint{X: x, P: float64(i+1) / n})
	}
	return out
}

// StretchRatio returns the longest duration divided by the shortest
// (paper §II-B). It returns 0 when fewer than two samples exist or the
// shortest is non-positive.
func StretchRatio(durations []float64) float64 {
	if len(durations) < 2 {
		return 0
	}
	lo, hi := durations[0], durations[0]
	for _, d := range durations[1:] {
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi / lo
}

// SlowOutliers returns the indices of samples exceeding mean + k·stddev —
// the paper's rule for picking slow transfers to inspect (µ+3σ). If none
// qualify, the single largest sample's index is returned (the paper falls
// back to the router's slowest transfer).
func SlowOutliers(xs []float64, k float64) []int {
	if len(xs) == 0 {
		return nil
	}
	cut := Mean(xs) + k*StdDev(xs)
	var out []int
	maxIdx := 0
	for i, x := range xs {
		if x > cut && len(xs) > 1 {
			out = append(out, i)
		}
		if x > xs[maxIdx] {
			maxIdx = i
		}
	}
	if len(out) == 0 {
		out = []int{maxIdx}
	}
	return out
}
