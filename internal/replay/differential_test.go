package replay

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/simtest"
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
	requireSameReplay(t, what, got, gotErr, want, wantErr)
	return got
}

// requireSameReplay requires an engine's replay to equal the reference
// engine's: whole Results, or the same error text.
func requireSameReplay(t *testing.T, what string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: engine error %v, reference error %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine diverged from the reference engine\n got %+v\nwant %+v", what, summary(got), summary(want))
	}
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
// overridden and impossible lock orders, hand-placed constraints, stuck
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
		cons  []trace.Constraint
		stuck bool
	}{
		{"recorded order", Options{Sched: ELSCS}, nil, false},
		{"reversed order", Options{Sched: ELSCS, lockOrder: map[trace.LockID][]int32{l: swapped}}, nil, false},
		{"impossible order", Options{Sched: ELSCS, lockOrder: map[trace.LockID][]int32{l: impossible}}, nil, true},
		{"order too short", Options{Sched: ELSCS, lockOrder: map[trace.LockID][]int32{l: order[:2]}}, nil, true},
		{"order present but nil", Options{Sched: ELSCS, lockOrder: map[trace.LockID][]int32{l: nil}}, nil, true},
		{"order names no lock of the trace", Options{Sched: ELSCS, lockOrder: map[trace.LockID][]int32{l + 7: {0, 1}}}, nil, false},
		{"order ignored outside ELSC", Options{Sched: SyncS, lockOrder: map[trace.LockID][]int32{l: impossible}}, nil, false},
		{"reversed by constraint", Options{Sched: OrigS, Seed: 3}, []trace.Constraint{{After: rel(order[2]), Before: order[0]}}, false},
		{"constraints fan in", Options{Sched: ELSCS}, []trace.Constraint{
			{After: 1, Before: order[3]}, {After: rel(order[0]), Before: order[3]}, {After: 1, Before: order[3]}}, false},
		{"self-dependent constraint", Options{Sched: ELSCS}, []trace.Constraint{{After: 3, Before: 3}}, true},
		{"constraint against the lock order", Options{Sched: ELSCS}, []trace.Constraint{{After: rel(order[2]), Before: order[0]}}, true},
	} {
		if res := requireMatchesRef(t, c.name, withConstraints(tr, c.cons...), c.opts); (res == nil) != c.stuck {
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
	wedged := withConstraints(bar, trace.Constraint{After: pt[1][len(pt[1])-1], Before: lastBarrier})
	if res := requireMatchesRef(t, "barrier/participant never arrives", wedged, Options{Sched: ELSCS}); res != nil {
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

	// A member DLS drops while another thread still holds it, which
	// transform never emits (a source section holds its own lock until it
	// finishes): thread 1's acquisition of a1 waits until thread 2's event
	// finishes, not for thread 0's release, and then thread 1 takes a2
	// before thread 2 does. Thread 2 also reads a cell nothing stores to,
	// which FinalMem must leave out.
	dls := trace.New("dls", 3)
	dls.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1}, Sources: []int32{-1}})
	dls.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 1000})
	dls.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1}})
	dls.Append(trace.Event{Thread: 2, Kind: trace.KCompute, Cost: 300})
	src := dls.Append(trace.Event{Thread: 2, Kind: trace.KCompute, Cost: 200})
	dls.Append(trace.Event{Thread: 2, Kind: trace.KRead, Addr: 9, Cost: 5})
	dls.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 20})
	dls.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1}, Sources: []int32{src}})
	dls.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 10})
	dls.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a1}})
	for _, th := range []int32{1, 2} {
		dls.AppendExt(trace.Event{Thread: th, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a2}, Sources: []int32{-1}})
		dls.Append(trace.Event{Thread: th, Kind: trace.KCompute, Cost: 100})
		dls.AppendExt(trace.Event{Thread: th, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{a2}})
	}
	for i, opts := range locksetVariants {
		for _, sch := range allScheds {
			opts.Sched = sch
			requireMatchesRef(t, fmt.Sprintf("dropped while held/variant=%d/%v", i, sch), dls, opts)
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
		{"stuck-small", small, Options{Sched: ELSCS, lockOrder: map[trace.LockID][]int32{l: {order[1], order[0], order[2], order[3]}}}},
		{"mems-big", big, Options{Sched: MemS}},
		{"plan-dls", rec, Options{Sched: ELSCS, DLS: true, LocksetCost: 40, Plan: tres.Plan}},
		{"constrained-small", withConstraints(small, trace.Constraint{After: order[2], Before: order[0]}), Options{Sched: OrigS, Seed: 5}},
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
			requireSameReplay(t, what, got, gotErr, want, wantErr)
		}
	}
}

func workloadTrace(app string, threads int, scale float64, seed int64) *trace.Trace {
	p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: scale, Seed: seed})
	return sim.Run(p, sim.Config{Seed: seed}).Trace.Warm()
}

// TestLockSlotLookupDoesNotShow: reset finds an auxiliary lock's slot
// through a table over the ordinals transform hands out and every other
// lock's through a table over its ID. Which of the two serves a lock
// changes no replay: a recording whose lock is renamed into the
// auxiliary range keeps its enforced order under every scheme, and a
// transformed trace whose auxiliary locks are renamed past the tables'
// arrays keeps its locksets.
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

// TestDenseTablesDoNotShow: reset keeps lock IDs, addresses, barrier IDs
// and generations below a bound set by the trace's size in arrays and
// the rest in maps. Renaming every one past the bound — one of each to
// 0xFFFFFFF0, and an address to 1<<24 — changes no replay under any
// scheme beyond the addresses its memory image and read digest name, and
// reset sizes no array from them.
func TestDenseTablesDoNotShow(t *testing.T) {
	rec := simtest.RandomProgram(5, 3, 2, 6, simtest.Barriers|simtest.Skips|simtest.Conds|simtest.SpinLocks).Trace
	off := len(rec.Events) + len(rec.InitMem) + 1
	const hostile, far1 = 0xFFFFFFF0, 1 << 24
	addr := func(a memmodel.Addr) memmodel.Addr {
		switch a {
		case 1:
			return hostile
		case 2:
			return far1 // past the bound, far below the hostile ID
		}
		return a + memmodel.Addr(off)
	}
	id := func(l, first trace.LockID) trace.LockID {
		if l == first {
			return trace.LockID(int32(-16)) // 0xFFFFFFF0 as a LockID
		}
		return l + trace.LockID(off)
	}
	far := rec.Aligned(0)
	var firstLock, firstBar trace.LockID
	var firstGen int64 = -1
	hostileAddr := false
	for i := range far.Events {
		e := &far.Events[i]
		switch e.Kind {
		case trace.KRead, trace.KWrite:
			e.Addr = addr(e.Addr)
			hostileAddr = hostileAddr || e.Addr == hostile
		case trace.KLockAcq, trace.KLockRel:
			if firstLock == 0 {
				firstLock = e.Lock
			}
			e.Lock = id(e.Lock, firstLock)
		case trace.KBarrier:
			if firstBar == 0 {
				firstBar, firstGen = e.Lock, e.Value
			}
			e.Lock = id(e.Lock, firstBar)
			if e.Value == firstGen {
				e.Value = hostile
			} else {
				e.Value += int64(off)
			}
		}
	}
	renameMem := func(s memmodel.Snapshot, rename func(memmodel.Addr) memmodel.Addr) memmodel.Snapshot {
		out := make(memmodel.Snapshot, len(s))
		for a, v := range s {
			out[rename(a)] = v
		}
		return out
	}
	far.InitMem = renameMem(rec.InitMem, addr)
	skips := 0
	for i := range far.Exts {
		if d := far.Exts[i].Delta; d != nil {
			far.Exts[i].Delta = renameMem(d, addr)
			skips++
		}
	}
	if firstLock == 0 || firstBar == 0 || skips == 0 || !hostileAddr {
		t.Fatalf("lock %v, barrier %v, %d skips, address %#x accessed: %t — not every table is exercised",
			firstLock, firstBar, skips, hostile, hostileAddr)
	}
	back := func(a memmodel.Addr) memmodel.Addr {
		switch a {
		case hostile:
			return 1
		case far1:
			return 2
		}
		return a - memmodel.Addr(off)
	}

	for _, opts := range []Options{{Sched: OrigS, Seed: 3}, {Sched: ELSCS}, {Sched: SyncS}, {Sched: MemS}} {
		want := requireMatchesRef(t, "dense/"+opts.Sched.String(), rec, opts)
		got := *requireMatchesRef(t, "renamed/"+opts.Sched.String(), far, opts)
		// The read digest folds each address in; everything else must hold.
		got.FinalMem = renameMem(got.FinalMem, back)
		got.ReadHash, got.readHashes = want.ReadHash, want.readHashes
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%v: renaming past the dense bound changed the replay\n got %+v\nwant %+v", opts.Sched, summary(&got), summary(want))
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := new(engine).reset(far, Options{Sched: ELSCS}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(far.Events)); per >= 1024 {
		t.Fatalf("reset allocated %.0f B per event of a trace with hostile IDs; want < 1 KiB", per)
	}

	// Every event its own barrier, each at the last generation below the
	// bound: a generation array per barrier sized by the trace's bound
	// would cost the square of the trace.
	const n = 2000
	bars := &trace.Trace{NumThreads: 1, Events: make([]trace.Event, n)}
	for i := range bars.Events {
		bars.Events[i] = trace.Event{Thread: 0, Kind: trace.KBarrier, Lock: trace.LockID(i + 1), Value: n - 1}
	}
	requireMatchesRef(t, "barriers", bars, Options{Sched: ELSCS})
	runtime.ReadMemStats(&before)
	if err := new(engine).reset(bars, Options{Sched: ELSCS}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per >= 1024 {
		t.Fatalf("reset allocated %.0f B per event of %d barriers at generation %d; want < 1 KiB", per, n, n-1)
	}
}

// FuzzEngineMatchesReference holds Run ≡ runRef over generated programs —
// locks, spin locks, conds, barriers and skips — under every scheme (ORIG-S
// at two seeds), and the recording under its ULCP-free plan, with and
// without DLS and the lockset cost model, against the reference's replay
// of the materialised trace: whole Results, or the same error text. A
// job's Engine then replays the recording under ELSC, under each plan
// and under ELSC again, as a job does, and each run must equal both the
// reference's and a fresh pooled engine's.
func FuzzEngineMatchesReference(f *testing.F) {
	all := uint8(simtest.Barriers | simtest.Skips | simtest.Conds | simtest.SpinLocks)
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), uint8(0))
	f.Add(int64(11), uint8(1), uint8(1), uint8(5), uint8(simtest.Skips|simtest.SpinLocks))
	f.Add(int64(12), uint8(2), uint8(2), uint8(7), uint8(simtest.Barriers|simtest.Conds))
	f.Add(int64(-3), uint8(1), uint8(2), uint8(6), all)
	f.Fuzz(func(t *testing.T, seed int64, threads, locks, iters, with uint8) {
		tr := simtest.RandomProgram(seed, 2+int(threads%3), 1+int(locks%3), 1+int(iters%8), simtest.Feature(with&all)).Trace
		for _, opts := range []Options{{Sched: OrigS, Seed: seed}, {Sched: OrigS, Seed: seed + 1}, {Sched: ELSCS}, {Sched: SyncS}, {Sched: MemS}} {
			requireMatchesRef(t, fmt.Sprintf("%v/seed=%d", opts.Sched, opts.Seed), tr, opts)
		}
		tres := transformed(t, tr)
		for i, opts := range locksetVariants {
			want, wantErr := runRef(tres.Trace, opts)
			opts.Plan = tres.Plan
			got, gotErr := Run(tr, opts)
			requireSameReplay(t, fmt.Sprintf("plan/variant=%d", i), got, gotErr, want, wantErr)
		}

		eng := NewEngine()
		defer eng.Release()
		job := func(what string, opts Options, refTr *trace.Trace, refOpts Options) {
			got, gotErr := eng.Run(tr, opts)
			want, wantErr := runRef(refTr, refOpts)
			requireSameReplay(t, "job engine/"+what, got, gotErr, want, wantErr)
			fresh, freshErr := Run(tr, opts)
			requireSameReplay(t, "job engine vs fresh/"+what, got, gotErr, fresh, freshErr)
		}
		job("elsc", Options{Sched: ELSCS}, tr, Options{Sched: ELSCS})
		eng.Reserve()
		for i, opts := range locksetVariants {
			planned := opts
			planned.Plan = tres.Plan
			job(fmt.Sprintf("plan/variant=%d", i), planned, tres.Trace, opts)
		}
		job("elsc again", Options{Sched: ELSCS}, tr, Options{Sched: ELSCS})
	})
}
