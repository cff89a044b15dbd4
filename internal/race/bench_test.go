package race

import (
	"runtime"
	"testing"

	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// planned is one input to Detect as the quantify stage calls it: a
// recording, its ULCP-free plan, and the order the plan replay started
// the events in.
type planned struct {
	tr    *trace.Trace
	plan  *trace.Plan
	order []int32
}

// plannedRun records app at 4 threads and the given scale and seed,
// plans it and replays it under the plan.
func plannedRun(tb testing.TB, app string, scale float64, seed int64) planned {
	tb.Helper()
	p := workload.MustGet(app).Build(workload.Config{Threads: 4, Scale: scale, Seed: seed})
	tr := sim.Run(p, sim.Config{Seed: seed}).Trace
	css := tr.ExtractCS()
	tf, err := transform.Plan(css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		tb.Fatal(err)
	}
	free, err := replay.Run(tr, replay.Options{Sched: replay.ELSCS, Plan: tf.Plan})
	if err != nil {
		tb.Fatal(err)
	}
	return planned{tr, tf.Plan, OrderByStart(free.EventStart)}
}

// reuseInputs are recordings shaped like the daemon-reuse benchmark's:
// its five apps at 4 threads and about 5,000 events each (the scale is
// 5,000 over the app's events per unit of scale).
func reuseInputs(tb testing.TB) []planned {
	apps := []struct {
		name           string
		eventsPerScale float64
	}{{"mysql", 27600}, {"openldap", 25400}, {"pbzip2", 10600}, {"dedup", 233000}, {"ferret", 88000}}
	var in []planned
	for _, a := range apps {
		in = append(in, plannedRun(tb, a.name, 5000/a.eventsPerScale, 42))
	}
	return in
}

// BenchmarkDetect times Detect as the quantify stage runs it — under the
// plan, in the plan replay's order, capped at the pipeline's default 32
// races — over daemon-reuse-shaped recordings, and reports ns/event and
// allocs/event over all five.
func BenchmarkDetect(b *testing.B) {
	in := reuseInputs(b)
	events := 0
	for _, p := range in {
		events += len(p.tr.Events)
	}
	var ms0, ms1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&ms0)
	for range b.N {
		for _, p := range in {
			sink = Detect(p.tr, p.plan, p.order, 32)
		}
	}
	runtime.ReadMemStats(&ms1)
	b.StopTimer()
	total := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/total, "allocs/event")
}

// sink keeps the benchmarked calls' results alive.
var sink []Race

// TestDetectAllocsFlat pins Detect's allocations: on one barrier-free
// workload, under the plan in replay order, a recording over three times
// longer costs the same number of allocations. (Both report a race; the
// first report allocates the dedup set and the result.)
func TestDetectAllocsFlat(t *testing.T) {
	var allocs [2]float64
	for i, scale := range []float64{0.2, 0.8} {
		p := plannedRun(t, "pbzip2", scale, 42)
		if hasBarrier(p.tr) {
			t.Fatal("pbzip2 records barriers; pick a barrier-free workload")
		}
		if len(Detect(p.tr, p.plan, p.order, 32)) == 0 {
			t.Fatalf("scale %.1f: no race reported", scale)
		}
		allocs[i] = testing.AllocsPerRun(10, func() { Detect(p.tr, p.plan, p.order, 32) })
		t.Logf("scale %.1f: %d events, %.0f allocations", scale, len(p.tr.Events), allocs[i])
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocations grew with the recording: %v", allocs)
	}
}

func hasBarrier(tr *trace.Trace) bool {
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.KBarrier {
			return true
		}
	}
	return false
}

// TestDetectAtThreadBound: the detector's clocks are as wide as the
// trace's thread count, so a stored trace that claims the most threads
// any decoder admits, with only two events, bounds what one -races job
// can allocate.
func TestDetectAtThreadBound(t *testing.T) {
	tr := trace.New("widest", trace.MaxThreads)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 1, Value: 1})
	tr.Append(trace.Event{Thread: trace.MaxThreads - 1, Kind: trace.KRead, Addr: 1})
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	races := Detect(tr, nil, nil, 32)
	runtime.ReadMemStats(&after)
	if len(races) != 1 {
		t.Fatalf("%d races, want the one unordered write/read pair", len(races))
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d threads, 2 events: Detect allocated %d bytes", trace.MaxThreads, n)
	if n >= 16<<20 {
		t.Fatalf("Detect allocated %d bytes over %d threads and 2 events, want < 16 MiB", n, trace.MaxThreads)
	}
}
