package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}, {-5, 1}, {120, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4), the spread rule of the contract.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{7}, 7, 7},
		{nil, 0, 0},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadShare(t *testing.T) {
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spreadShare = %v, want 1", got) // (8.25-2.75)/5.5
	}
	if got := spreadShare([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spreadShare around a zero median = %v, want 0", got)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	decls := []metricDecl{
		{Name: "perfplay.startup_ms", Unit: "ms"}, {Name: "trace.events", Unit: "count"}, {Name: "corpus.put_ns_per_mb", Unit: "ns/MiB"},
		{Name: "perfplayd.cpu_util", Unit: "ratio"}, {Name: "absent", Unit: "ms"},
	}
	values := map[string]float64{"perfplay.startup_ms": 120, "trace.events": 1000, "corpus.put_ns_per_mb": 6, "perfplayd.cpu_util": 1.5}
	raw := atReferenceSpeed(decls, values, 1.2) // the box ran 20 % slower than the reference
	want := map[string]float64{"perfplay.startup_ms": 100, "trace.events": 1000, "corpus.put_ns_per_mb": 5, "perfplayd.cpu_util": 1.5}
	for k, w := range want {
		if !near(values[k], w) {
			t.Errorf("%s = %v at reference speed, want %v", k, values[k], w)
		}
	}
	if raw["raw.perfplay.startup_ms"] != 120 || raw["raw.corpus.put_ns_per_mb"] != 6 || raw["bench.speed_factor"] != 1.2 || len(raw) != 3 {
		t.Errorf("raw values = %v", raw)
	}
	var s speed
	s.sample(3)
	s.sample(1)
	wall, cpu := s.factor()
	aw, ac := s.around(0)
	if len(s.ms) != 2 || len(s.cpuMS) != 2 || wall <= 0 || cpu <= 0 || aw <= 0 || ac <= 0 {
		t.Errorf("kernel timings %v (cpu %v), factors %v %v, around %v %v", s.ms, s.cpuMS, wall, cpu, aw, ac)
	}
	got := timed{wallS: 12, cpuS: 6, latMS: []float64{120, 240}}.at(1.2, 1.5)
	if !near(got.wallS, 10) || !near(got.cpuS, 4) || !near(got.latMS[0], 100) || !near(got.latMS[1], 200) {
		t.Errorf("timed.at(1.2, 1.5) = %+v", got)
	}
}
