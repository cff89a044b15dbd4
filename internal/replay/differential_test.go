package replay

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

var allScheds = []Scheduler{OrigS, ELSCS, SyncS, MemS}

// requireMatchesRef replays on both engines and requires the whole
// Result — every timestamp, counter, the memory image and the read
// digests — to be equal, or both to fail with the same error text.
func requireMatchesRef(t *testing.T, what string, tr *trace.Trace, opts Options) *Result {
	t.Helper()
	got, gotErr := Run(tr, opts)
	want, wantErr := runRef(tr, opts)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: Run error %v, reference error %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Run diverged from the reference engine\n got %+v\nwant %+v", what, summary(got), summary(want))
	}
	return got
}

// summary keeps a failure message readable: the scalars of a Result.
func summary(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	return fmt.Sprintf("total=%v waited=%v spin=%v enforce=%v lsOverhead=%v lsAcqs=%d lsMembers=%d readHash=%x",
		r.Total, r.Waited, r.SpinWaste, r.EnforceWait, r.LocksetOverhead, r.LocksetAcqs, r.LocksetMembers, r.ReadHash)
}

// transformed is the ULCP-free schedule of a recording, as plan and as
// trace.
func transformed(t *testing.T, tr *trace.Trace) *transform.Result {
	t.Helper()
	css := tr.ExtractCS()
	tres, err := transform.Apply(tr, css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return tres
}

// freeTrace is the ULCP-free trace of a recording.
func freeTrace(t *testing.T, tr *trace.Trace) *trace.Trace {
	t.Helper()
	return transformed(t, tr).Trace
}

// locksetVariants are the lockset-replay option sets a transformed trace
// is replayed under: the dynamic locking strategy and the maintenance
// cost model each on and off.
var locksetVariants = []Options{
	{Sched: ELSCS},
	{Sched: ELSCS, DLS: true},
	{Sched: ELSCS, LocksetCost: 40},
	{Sched: ELSCS, DLS: true, LocksetCost: 40},
	{Sched: ELSCS, DLS: true, LocksetCost: 40, DLSCheckCost: 3},
}

// TestEngineMatchesReference is the engine's differential oracle over
// real inputs: every registered workload × threads {2,4} × seeds {7,42},
// the recording under all four schemes and its transformed trace under
// every lockset variant.
func TestEngineMatchesReference(t *testing.T) {
	locksets := 0
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				what := fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed)
				tr := workloadTrace(app, threads, 0.05, seed)
				for _, s := range allScheds {
					requireMatchesRef(t, what+"/"+s.String(), tr, Options{Sched: s, Seed: seed})
				}
				free := freeTrace(t, tr)
				for i, opts := range locksetVariants {
					res := requireMatchesRef(t, fmt.Sprintf("%s/free/variant=%d", what, i), free, opts)
					locksets += res.LocksetAcqs
				}
			}
		}
	}
	if locksets == 0 {
		t.Fatal("no transformed trace acquired a lockset: the lockset path went unexercised")
	}
}

// twoWriters records two threads writing one cell under one lock, the
// second well after the first.
func twoWriters() (*trace.Trace, trace.LockID) {
	p := sim.NewProgram("ws")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("w.c", 1, "f")
	for i := 0; i < 2; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			th.Compute(vtime.Duration(500 * i))
			for j := 0; j < 2; j++ {
				th.Lock(l, s)
				th.Read(x, s)
				th.Write(x, int64(10*i+j), s)
				th.Unlock(l, s)
			}
		})
	}
	return sim.Run(p, sim.Config{Seed: 1}).Trace, l
}

// TestEngineMatchesReferenceHandBuilt covers what no workload produces:
// overridden and impossible lock orders, extra constraints, stuck
// replays (same error text), barrier episodes under every scheme, and
// lockset events transform never emits.
func TestEngineMatchesReferenceHandBuilt(t *testing.T) {
	tr, l := twoWriters()
	order := tr.LockOrder()[l]
	swapped := []int32{order[0], order[2], order[1], order[3]}
	impossible := []int32{order[1], order[0], order[2], order[3]} // thread 0's second before its first
	rel := func(acq int32) int32 { return acq + 3 }               // lock, read, write, unlock
	for _, c := range []struct {
		name  string
		opts  Options
		stuck bool
	}{
		{"recorded order", Options{Sched: ELSCS}, false},
		{"reversed order", Options{Sched: ELSCS, LockOrder: map[trace.LockID][]int32{l: swapped}}, false},
		{"impossible order", Options{Sched: ELSCS, LockOrder: map[trace.LockID][]int32{l: impossible}}, true},
		{"order too short", Options{Sched: ELSCS, LockOrder: map[trace.LockID][]int32{l: order[:2]}}, true},
		{"order present but nil", Options{Sched: ELSCS, LockOrder: map[trace.LockID][]int32{l: nil}}, true},
		{"order names no lock of the trace", Options{Sched: ELSCS, LockOrder: map[trace.LockID][]int32{l + 7: {0, 1}}}, false},
		{"order ignored outside ELSC", Options{Sched: SyncS, LockOrder: map[trace.LockID][]int32{l: impossible}}, false},
		{"reversed by constraint", Options{Sched: OrigS, Seed: 3, ExtraConstraints: []trace.Constraint{{After: rel(order[2]), Before: order[0]}}}, false},
		{"constraints fan in", Options{Sched: ELSCS, ExtraConstraints: []trace.Constraint{
			{After: 1, Before: order[3]}, {After: rel(order[0]), Before: order[3]}, {After: 1, Before: order[3]}}}, false},
		{"self-dependent constraint", Options{Sched: ELSCS, ExtraConstraints: []trace.Constraint{{After: 3, Before: 3}}}, true},
		{"constraint against the lock order", Options{Sched: ELSCS, ExtraConstraints: []trace.Constraint{{After: rel(order[2]), Before: order[0]}}}, true},
	} {
		if res := requireMatchesRef(t, c.name, tr, c.opts); (res == nil) != c.stuck {
			t.Fatalf("%s: stuck = %v, want %v", c.name, res == nil, c.stuck)
		}
	}

	// Barrier episodes, three generations, threads arriving at different
	// times; under MEM-S and SYNC-S registration precedes the gates.
	p := sim.NewProgram("bar")
	b := p.NewBarrier("B", 3)
	lk := p.NewLock("L")
	s := p.Site("f.c", 1, "f")
	for i := 0; i < 3; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			for gen := 0; gen < 3; gen++ {
				th.Compute(vtime.Duration(300 + 700*((i+gen)%3)))
				th.Lock(lk, s)
				th.Compute(50)
				th.Unlock(lk, s)
				th.Barrier(b, s)
			}
		})
	}
	bar := sim.Run(p, sim.Config{Seed: 1}).Trace
	for _, sch := range allScheds {
		requireMatchesRef(t, "barrier/"+sch.String(), bar, Options{Sched: sch, Seed: 9})
	}
	// A participant held back by a constraint on what follows the barrier
	// never registers, and the episode wedges both engines alike.
	pt := bar.PerThread()
	lastBarrier := pt[0][len(pt[0])-2]
	if bar.Events[lastBarrier].Kind != trace.KBarrier {
		t.Fatalf("event %d is %v, want thread 0's last barrier", lastBarrier, bar.Events[lastBarrier].Kind)
	}
	wedged := Options{Sched: ELSCS, ExtraConstraints: []trace.Constraint{{After: pt[1][len(pt[1])-1], Before: lastBarrier}}}
	if res := requireMatchesRef(t, "barrier/participant never arrives", bar, wedged); res != nil {
		t.Fatal("an episode short of a participant replayed to the end")
	}

	// Locksets by hand: an empty set, a release with nothing open, nested
	// acquisitions, and sources whose lengths do not parallel the locks.
	ls := trace.New("ls", 2)
	a1, a2 := trace.AuxLockBase+1, trace.AuxLockBase+2
	ls.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 5}, trace.EventExt{Locks: []trace.LockID{a1}})
	acq0 := ls.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1, a2}, Sources: []int32{-1, -1}})
	ls.Append(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Cost: 10})
	ls.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 400})
	ls.Append(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 10})
	rel0 := ls.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1, a2}})
	ls.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 100})
	ls.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1, a2}, Sources: []int32{rel0, acq0}})
	ls.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1, a2}})
	ls.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a2}, Sources: []int32{rel0, rel0}})
	ls.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a2}})
	for i, opts := range locksetVariants {
		for _, sch := range allScheds {
			opts.Sched = sch
			requireMatchesRef(t, fmt.Sprintf("hand locksets/variant=%d/%v", i, sch), ls, opts)
		}
	}
}

// TestEngineMatchesReferencePooled: one recycled engine crosses trace
// shapes (thread counts, lock sets, constraints, barriers, locksets) and
// forms (a transformed trace, then the recording under its plan, then a
// plain recording) and still equals a reference engine that starts from
// nothing every time — which, knowing no plans, replays the plan's
// materialised trace.
func TestEngineMatchesReferencePooled(t *testing.T) {
	big := buildContended(4, 8).Trace
	small, l := twoWriters()
	order := small.LockOrder()[l]
	rec := workloadTrace("mysql", 4, 0.1, 42)
	tres := transformed(t, rec)
	free := tres.Trace
	runs := []struct {
		name string
		tr   *trace.Trace
		opts Options
	}{
		{"elsc-big", big, Options{Sched: ELSCS}},
		{"free-dls", free, Options{Sched: ELSCS, DLS: true, LocksetCost: 40}},
		{"stuck-small", small, Options{Sched: ELSCS, LockOrder: map[trace.LockID][]int32{l: {order[1], order[0], order[2], order[3]}}}},
		{"mems-big", big, Options{Sched: MemS}},
		{"plan-dls", rec, Options{Sched: ELSCS, DLS: true, LocksetCost: 40, Plan: tres.Plan}},
		{"constrained-small", small, Options{Sched: OrigS, Seed: 5, ExtraConstraints: []trace.Constraint{{After: order[2], Before: order[0]}}}},
		{"free-plain", free, Options{Sched: ELSCS}},
		{"plan-plain", rec, Options{Sched: ELSCS, Plan: tres.Plan}},
		{"elsc-recording", rec, Options{Sched: ELSCS}},
		{"sync-small", small, Options{Sched: SyncS}},
	}
	e := enginePool.Get().(*engine)
	defer e.release()
	for round := 0; round < 3; round++ {
		for _, r := range runs {
			what := fmt.Sprintf("round %d %s", round, r.name)
			got, gotErr := e.run(r.tr, r.opts)
			refTr, refOpts := r.tr, r.opts
			if r.opts.Plan != nil {
				refTr, refOpts.Plan = free, nil
			}
			want, wantErr := runRef(refTr, refOpts)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s: engine error %v, reference error %v", what, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: engine diverged from the reference engine\n got %+v\nwant %+v", what, summary(got), summary(want))
			}
		}
	}
}

func workloadTrace(app string, threads int, scale float64, seed int64) *trace.Trace {
	p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: scale, Seed: seed})
	return sim.Run(p, sim.Config{Seed: seed}).Trace.Warm()
}

// TestLockSlotLookupDoesNotShow: reset finds an auxiliary lock's slot
// through an array over the ordinals transform hands out and every other
// lock's through a map. Which of the two serves a lock changes no replay:
// a recording whose lock is renamed into the auxiliary range keeps its
// enforced order under every scheme, and a transformed trace whose
// auxiliary locks are renamed past the array keeps its locksets.
func TestLockSlotLookupDoesNotShow(t *testing.T) {
	rec := buildContended(3, 5).Trace
	renamed := rec.Aligned(0)
	for i := range renamed.Events {
		if e := &renamed.Events[i]; e.Kind == trace.KLockAcq || e.Kind == trace.KLockRel {
			e.Lock += trace.AuxLockBase
		}
	}
	for _, sched := range allScheds {
		opts := Options{Sched: sched, Seed: 3}
		want := requireMatchesRef(t, fmt.Sprintf("map/%v", sched), rec, opts)
		if got := requireMatchesRef(t, fmt.Sprintf("array/%v", sched), renamed, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: renaming the lock into the auxiliary range changed the replay", sched)
		}
	}

	p := workload.MustGet("mysql").Build(workload.Config{Threads: 4, Scale: 0.05, Seed: 7})
	free := freeTrace(t, sim.Run(p, sim.Config{Seed: 7}).Trace)
	far := free.Aligned(0)
	for i := range far.Exts {
		locks := slices.Clone(far.Exts[i].Locks)
		for j := range locks {
			locks[j] += trace.LockID(len(far.Events))
		}
		far.Exts[i].Locks = locks
	}
	for i, opts := range locksetVariants {
		want := requireMatchesRef(t, fmt.Sprintf("array/variant %d", i), free, opts)
		if want.LocksetAcqs == 0 {
			t.Fatal("the transformed trace acquires no lockset")
		}
		if got := requireMatchesRef(t, fmt.Sprintf("map/variant %d", i), far, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("variant %d: renaming the auxiliary locks past the array changed the replay", i)
		}
	}
}
