package main

import (
	"math"
	"sort"
)

// quantile returns the ⌈p·n⌉-th order statistic of a sorted sample,
// clamped to [1, n]: the convention stats.Sketch and cmd/reprobench
// use, so every percentile this benchmark reports is an observed value.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sample is a set of timings (or other values) with its quantiles.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s sample) q(p float64) float64 { return quantile(s.sorted(), p) }

func (s sample) median() float64 { return s.q(0.5) }

func (s sample) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload
// never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
