package stats

import (
	"math"
	"testing"
	"testing/quick"

	"perfplay/internal/vtime"
)

func TestMeanStd(t *testing.T) {
	s := Sample{2, 4, 4, 4, 5, 5, 7, 9}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if got := s.Std(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("std = %v, want 2", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	var e Sample
	if e.Mean() != 0 || e.Std() != 0 || e.Min() != 0 || e.Max() != 0 || e.Median() != 0 {
		t.Fatal("empty sample must be all zeros")
	}
	s := Sample{3}
	if s.Mean() != 3 || s.Std() != 0 || s.Min() != 3 || s.Max() != 3 || s.Median() != 3 {
		t.Fatal("singleton stats wrong")
	}
}

func TestMinMaxMedian(t *testing.T) {
	s := Sample{9, 1, 5, 3}
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatal("min/max wrong")
	}
	if got := s.Median(); got != 4 {
		t.Fatalf("median = %v, want 4", got)
	}
	odd := Sample{9, 1, 5}
	if got := odd.Median(); got != 5 {
		t.Fatalf("median = %v, want 5", got)
	}
}

func TestFromDurations(t *testing.T) {
	s := FromDurations([]vtime.Duration{10, 20})
	if s.Mean() != 15 {
		t.Fatalf("mean = %v", s.Mean())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("ratio by zero must be 0")
	}
	if Ratio(3, 2) != 1.5 {
		t.Fatal("ratio wrong")
	}
}

// Min <= Median <= Max and Std >= 0 for any sample.
func TestInvariantsQuick(t *testing.T) {
	f := func(xs []int16) bool {
		if len(xs) == 0 {
			return true
		}
		s := make(Sample, len(xs))
		for i, x := range xs {
			s[i] = float64(x)
		}
		return s.Min() <= s.Median() && s.Median() <= s.Max() && s.Std() >= 0 &&
			s.Min() <= s.Mean() && s.Mean() <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
