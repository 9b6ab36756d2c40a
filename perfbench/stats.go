package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles cuts xs the way Python's statistics.quantiles(xs, n=4)
// does (the "exclusive" method), so the repeatability table reads the
// same spreads as any script that checks it.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := quantile(xs, 0.5)
		return m, m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, hi
}

// msOf converts durations to float milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = durMs(d)
	}
	return out
}

// usOf converts durations to float microseconds.
func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = durUs(d)
	}
	return out
}

// durMs and durUs convert a duration to float milliseconds/microseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
func durUs(d time.Duration) float64 { return float64(d) / 1e3 }

// medianIndex returns the index of the median element of xs (the lower
// one for even lengths), so a whole run can be reported from the rep
// whose wall clock is the median.
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(idx)-1)/2]
}
