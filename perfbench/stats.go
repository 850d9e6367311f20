package main

import (
	"math"
	"sort"
)

// percentile is the p-th percentile (0-100) of an ascending sample, by
// linear interpolation between the closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := p / 100 * float64(n-1)
	lo := int(math.Floor(r))
	if lo >= n-1 {
		return sorted[n-1]
	}
	f := r - float64(lo)
	return sorted[lo] + f*(sorted[lo+1]-sorted[lo])
}

// pctOf sorts a copy of xs and returns its p-th percentile.
func pctOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return pctOf(xs, 50) }

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// which is how the benchmark's spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		const nq = 4
		m := ld + 1
		j := i * m / nq
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*nq)
		return (s[j-1]*(nq-delta) + s[j]*delta) / nq
	}
	return cut(1), cut(3)
}
