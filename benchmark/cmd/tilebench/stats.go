package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is the number of samples that must lie beyond a reported
// percentile.
const tailBeyond = 10

// percentile is the nearest-rank p-th percentile. ok is false when fewer than
// tailBeyond samples lie beyond the rank, in which case the value is not to be
// reported.
func percentile(xs []float64, p int) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := (p*n + 99) / 100 // ceil(p/100 * n), 1-based
	if rank < 1 {
		rank = 1
	}
	return sorted(xs)[rank-1], n-rank >= tailBeyond
}

// minSamples is the smallest n for which percentile(_, p) is reportable.
func minSamples(p int) int {
	n := 1
	for {
		if rank := (p*n + 99) / 100; n-rank >= tailBeyond {
			return n
		}
		n++
	}
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
