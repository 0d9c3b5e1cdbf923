package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is one slow outlier, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (q in
// (0, 1]): the smallest sample with at least a q share of the samples
// at or below it. It refuses when fewer than minBeyond samples lie
// above that rank. samples need not be sorted; they are not modified.
func percentile[T float32 | float64](samples []T, q float64) (float64, error) {
	n := len(samples)
	if n == 0 || !(q > 0 && q <= 1) {
		return 0, fmt.Errorf("percentile: q=%v over %d samples", q, n)
	}
	rank := int(math.Ceil(q * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	s := append([]T(nil), samples...)
	slices.Sort(s)
	return float64(s[rank-1]), nil
}

// median returns the middle sample, averaging the two middle ones for
// an even count, and 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(samples []float64) float64 {
	m := math.Inf(-1)
	for _, v := range samples {
		m = math.Max(m, v)
	}
	return m
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}
