package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// groupedQuantile estimates the q-quantile of a time-ordered sample as
// the median of the q-quantiles of up to 9 consecutive groups, each
// large enough to leave ten samples beyond q. A slow stretch of the
// run then moves one group's estimate, not the result. With fewer than
// three such groups it is the plain sample quantile.
func groupedQuantile(xs []float64, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	k := min(len(xs)/need, 9)
	if k < 3 {
		return quantile(xs, q)
	}
	per := make([]float64, k)
	for g := range per {
		per[g] = quantile(xs[g*len(xs)/k:(g+1)*len(xs)/k], q)
	}
	return median(per)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
