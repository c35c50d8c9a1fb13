package main

import (
	"math"
	"sort"
)

// stat is one reported number: the median of its samples with the quartiles
// and sample count beside it. Counts and derived ratios carry n == 1 and
// equal quartiles.
type stat struct {
	Value, Q1, Q3 float64
	N             int
}

func exact(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1} }

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Value }

// geomean of positive values; zero and negative entries are skipped (a
// program that allocates nothing has no space ratio).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
