// Package stats provides the small statistical toolkit the experiment
// harness uses: means, standard deviations (the error bars of Fig. 13),
// and normalization helpers.
package stats

import (
	"math"
	"sort"

	"perfplay/internal/vtime"
)

// Sample is a collection of observations.
type Sample []float64

// FromDurations converts virtual durations to a sample.
func FromDurations(ds []vtime.Duration) Sample {
	s := make(Sample, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	return s
}

// Mean returns the arithmetic mean (0 for an empty sample).
func (s Sample) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation.
func (s Sample) Std() float64 {
	if len(s) < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(s)))
}

// Min returns the smallest observation (0 for empty).
func (s Sample) Min() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, x := range s[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation (0 for empty).
func (s Sample) Max() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, x := range s[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the middle observation.
func (s Sample) Median() float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(Sample(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Ratio returns a/b, or 0 when b is 0.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
