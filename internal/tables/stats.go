// Package tables is the measuring kit of the paper runner
// (internal/expgrid): Measure, the one warm-up → timed-repeats loop
// outside benchmark/; the grouped statistics of its samples; the
// validated CSV Table every artifact is written as; and the host
// Fingerprint that stamps each measurement.
package tables

import (
	"fmt"
	"math"
	"time"
)

// Summary is the grouped statistic the experiment harness reports for a
// set of repeated wall-clock samples: the noise-robust minimum (the gated
// statistic — outside interference only ever adds time), the mean, and a
// 95% confidence interval on the mean so drift is visible per entry
// instead of only across baselines.
type Summary struct {
	N      int
	Min    float64
	Mean   float64
	Max    float64
	Stddev float64 // sample standard deviation (n-1)
	CI95   float64 // 95% CI half-width on the mean (Student's t)
}

// tCrit95 holds the two-sided 95% Student's t critical values for small
// degrees of freedom; beyond the table the normal approximation (1.96) is
// within a percent. Repeat counts in this harness are 3–15, squarely in
// the range where 1.96 would understate the interval.
var tCrit95 = []float64{
	0,                                                             // df=0 (unused)
	12.706,                                                        // df=1
	4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // df=2..10
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // df=11..20
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // df=21..30
}

func tCrit(df int) float64 {
	if df <= 0 {
		return 0
	}
	if df < len(tCrit95) {
		return tCrit95[df]
	}
	return 1.96
}

// Summarize computes the grouped statistics of samples. An empty input
// yields the zero Summary; a single sample has Min = Mean = Max and a zero
// CI (no dispersion estimate exists).
func Summarize(samples []float64) Summary {
	s := Summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = samples[0], samples[0]
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	ss := 0.0
	for _, v := range samples {
		d := v - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(s.N-1))
	s.CI95 = tCrit(s.N-1) * s.Stddev / math.Sqrt(float64(s.N))
	return s
}

// SummarizeNS is Summarize over integer nanosecond samples, the shape the
// bench harness records.
func SummarizeNS(samples []int64) Summary {
	fs := make([]float64, len(samples))
	for i, v := range samples {
		fs[i] = float64(v)
	}
	return Summarize(fs)
}

// MinNS returns the smallest sample, 0 for an empty slice.
func MinNS(samples []int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, v := range samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Samples is what Measure took: every timed repeat's wall clock, in
// measurement order, the checksum the first call returned, and whether
// every call, warm-ups included, returned that same checksum.
type Samples struct {
	WallNS   []int64
	Checksum int64
	Stable   bool
}

// Fastest returns the index of the smallest sample (0 when empty).
func (s Samples) Fastest() int {
	best := 0
	for i, v := range s.WallNS {
		if v < s.WallNS[best] {
			best = i
		}
	}
	return best
}

// Measure is the one warm-up → timed-repeats loop of the paper runner:
// it calls run warmups times, discarding the wall clock, then repeats
// times, keeping it. run sets up whatever the repeat needs (a fresh
// runtime, a profiler), passes the code to be timed to timed exactly once,
// and returns the repeat's checksum. The first error stops the loop and is
// returned with the call it came from.
func Measure(warmups, repeats int, run func(timed func(func())) (int64, error)) (Samples, error) {
	s := Samples{Stable: true}
	for i := 0; i < warmups+repeats; i++ {
		var wall time.Duration
		got, err := run(func(f func()) {
			start := time.Now()
			f()
			wall = time.Since(start)
		})
		if err != nil {
			if i < warmups {
				return s, fmt.Errorf("warm-up %d: %w", i, err)
			}
			return s, fmt.Errorf("repeat %d: %w", i-warmups, err)
		}
		if i == 0 {
			s.Checksum = got
		} else if got != s.Checksum {
			s.Stable = false
		}
		if i >= warmups {
			s.WallNS = append(s.WallNS, wall.Nanoseconds())
		}
	}
	return s, nil
}
