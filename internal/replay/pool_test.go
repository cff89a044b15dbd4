package replay

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
)

// TestPooledEngineMatchesFresh interleaves replays of different traces,
// schemes, and options so recycled engines keep crossing shape
// boundaries (different event counts, thread counts, schedulers,
// constraints); every result must equal a first-run result computed
// before any recycling could kick in.
func TestPooledEngineMatchesFresh(t *testing.T) {
	recA := buildContended(4, 8)
	recB := buildContended(2, 3)

	type run struct {
		name string
		rec  *sim.Result
		opts Options
	}
	runs := []run{
		{"elsc-big", recA, Options{Sched: ELSCS}},
		{"orig-small", recB, Options{Sched: OrigS, Seed: 5}},
		{"mems-big", recA, Options{Sched: MemS}},
		{"sync-small", recB, Options{Sched: SyncS}},
		{"elsc-small", recB, Options{Sched: ELSCS, LocksetCost: 3}},
	}

	want := make([]*Result, len(runs))
	for i, r := range runs {
		res, err := Run(r.rec.Trace, r.opts)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		want[i] = res
	}
	// Several more rounds: by now every run executes on a recycled
	// engine, usually one last used with a different trace shape.
	for round := 0; round < 4; round++ {
		for i, r := range runs {
			res, err := Run(r.rec.Trace, r.opts)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, r.name, err)
			}
			if !reflect.DeepEqual(res, want[i]) {
				t.Fatalf("round %d %s: pooled result diverged from fresh run", round, r.name)
			}
		}
	}
}

// TestPooledEngineConcurrent hammers Run from many goroutines over
// shared traces; with -race this pins that pooled engines never share
// state across concurrent replays and results stay deterministic.
func TestPooledEngineConcurrent(t *testing.T) {
	rec := buildContended(4, 6)
	base, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := Run(rec.Trace, Options{Sched: ELSCS})
				if err != nil {
					errs <- err
					return
				}
				if res.Total != base.Total || !res.FinalMem.Equal(base.FinalMem) || res.ReadHash != base.ReadHash {
					errs <- errMismatch
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent pooled replay diverged" }

// TestPooledEngineAfterError: a failed replay (stuck schedule, or a plan
// rejected halfway through laying it out) must still recycle cleanly and
// not poison the next run, planned or plain.
func TestPooledEngineAfterError(t *testing.T) {
	rec := buildContended(2, 2)
	good, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	// An impossible constraint (event waits on itself) wedges the replay
	// immediately.
	bad := withConstraints(rec.Trace, trace.Constraint{After: 3, Before: 3})
	if _, err := Run(bad, Options{Sched: ELSCS}); err == nil {
		t.Fatal("self-dependent constraint replayed successfully")
	}
	again, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if again.Total != good.Total || again.ReadHash != good.ReadHash {
		t.Fatal("run after a failed replay diverged")
	}

	writers, _ := twoWriters()
	tres := transformed(t, writers)
	planned, err := Run(writers, Options{Sched: ELSCS, Plan: tres.Plan})
	if err != nil {
		t.Fatal(err)
	}
	// The last section claims the first one's acquisition: every section
	// before it is laid out by the time the plan is rejected.
	broken := *tres.Plan
	broken.Acq = slices.Clone(broken.Acq)
	broken.Acq[len(broken.Acq)-1] = broken.Acq[0]
	if _, err := Run(writers, Options{Sched: ELSCS, Plan: &broken}); err == nil {
		t.Fatal("a plan claiming one acquisition twice replayed successfully")
	}
	for _, opts := range []Options{{Sched: ELSCS, Plan: tres.Plan}, {Sched: ELSCS}} {
		want := planned
		if opts.Plan == nil {
			if want, err = runRef(writers, opts); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := Run(writers, opts); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("run after a rejected plan (planned=%t) diverged: %v", opts.Plan != nil, err)
		}
	}
}

// TestJobEngineAfterError: a job's engine whose first run fails — under
// a plan rejected halfway through laying it out, or a schedule that
// wedges — keeps no layout, and its next runs, plain and planned, equal
// a fresh engine's.
func TestJobEngineAfterError(t *testing.T) {
	writers, l := twoWriters()
	tres := transformed(t, writers)
	broken := *tres.Plan
	broken.Acq = slices.Clone(broken.Acq)
	broken.Acq[len(broken.Acq)-1] = broken.Acq[0]
	order := writers.LockOrder()[l]
	stuck := Options{Sched: ELSCS, lockOrder: map[trace.LockID][]int32{l: {order[1], order[0], order[2], order[3]}}}
	for _, first := range []Options{{Sched: ELSCS, Plan: &broken}, stuck} {
		eng := NewEngine()
		if _, err := eng.Run(writers, first); err == nil {
			t.Fatalf("first run (planned=%t) replayed successfully", first.Plan != nil)
		}
		if eng.e.laid != nil {
			t.Fatal("a failed run left its layout behind")
		}
		for i, opts := range []Options{{Sched: ELSCS}, {Sched: ELSCS, Plan: tres.Plan}, {Sched: ELSCS}} {
			got, gotErr := eng.Run(writers, opts)
			want, wantErr := Run(writers, opts)
			requireSameReplay(t, fmt.Sprintf("after a failed run (planned=%t): run %d", first.Plan != nil, i), got, gotErr, want, wantErr)
		}
		eng.Release()
	}
}

// BenchmarkPooledReplay measures the steady-state cost of a full ELSC
// replay with engine recycling (the pipeline's per-scheme replay path).
func BenchmarkPooledReplay(b *testing.B) {
	rec := buildContended(4, 16)
	rec.Trace.Warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(rec.Trace, Options{Sched: ELSCS}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplayAllocsIndependentOfEvents: an engine that has seen the trace
// allocates what escapes a replay — the Result, its four arrays and the
// memory snapshot — and nothing inside the stepping loop, so the count
// does not follow the event count. The engine is held out of the pool:
// the pool drops engines at collections (and at random under -race).
// The relaid-plan variant counts a job's plan replay alone: each one
// follows an ELSC replay on the same engine, so it lays out only its run.
func TestReplayAllocsIndependentOfEvents(t *testing.T) {
	type variant struct {
		name       string
		free, plan bool
		opts       Options
		before     *Options
	}
	for _, app := range []struct {
		name   string
		scales [2]float64
	}{{"fluidanimate", [2]float64{0.05, 0.1}}, {"mysql", [2]float64{0.25, 0.5}}} {
		for _, v := range []variant{
			{"elsc", false, false, Options{Sched: ELSCS}, nil},
			{"free-dls", true, false, Options{Sched: ELSCS, DLS: true, LocksetCost: 40}, nil},
			{"plan-dls", false, true, Options{Sched: ELSCS, DLS: true, LocksetCost: 40}, nil},
			{"relaid-plan", false, true, Options{Sched: ELSCS}, &Options{Sched: ELSCS}},
		} {
			var allocs [2]float64
			var events [2]int
			for i, scale := range app.scales {
				tr := workloadTrace(app.name, 4, scale, 42)
				if v.free {
					tr = freeTrace(t, tr).Warm()
				}
				if v.plan {
					v.opts.Plan = transformed(t, tr).Plan
				}
				events[i] = len(tr.Events)
				e := enginePool.Get().(*engine)
				if v.before != nil {
					allocs[i] = allocsAfter(t, e, tr, *v.before, v.opts)
				} else {
					allocs[i] = testing.AllocsPerRun(5, func() {
						if _, err := e.run(tr, v.opts); err != nil {
							t.Fatal(err)
						}
					})
				}
				e.release()
			}
			if events[1] < events[0]*3/2 {
				t.Fatalf("%s/%s: %d then %d events: the scales do not separate", app.name, v.name, events[0], events[1])
			}
			if diff := allocs[1] - allocs[0]; diff < -3 || diff > 3 || allocs[0] > 16 || allocs[1] > 16 {
				t.Errorf("%s/%s: %v allocations for %d events, %v for %d; want <= 16 and within 3 of each other",
					app.name, v.name, allocs[0], events[0], allocs[1], events[1])
			}
		}
	}
}

// allocsAfter is testing.AllocsPerRun for a run under opts that follows
// a run under before on the same engine, which it does not count.
func allocsAfter(t *testing.T, e *engine, tr *trace.Trace, before, opts Options) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 5
	var a, b runtime.MemStats
	var n uint64
	for i := 0; i <= runs; i++ { // the first is a warm-up
		if _, err := e.run(tr, before); err != nil {
			t.Fatal(err)
		}
		if e.laid != tr {
			t.Fatal("the engine dropped the trace's layout after a run")
		}
		runtime.ReadMemStats(&a)
		_, err := e.run(tr, opts)
		runtime.ReadMemStats(&b)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			n += b.Mallocs - a.Mallocs
		}
	}
	return float64(n) / runs
}
