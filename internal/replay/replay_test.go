package replay

import (
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// buildContended records a program where threads contend on one lock with
// heterogeneous segment costs, the setting of Fig. 11.
func buildContended(threads, iters int) *sim.Result {
	p := sim.NewProgram("contended")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("w.c", 10, "work")
	for i := 0; i < threads; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < iters; j++ {
				th.Compute(vtime.Duration(300 + 137*i + 71*j))
				th.Lock(l, s)
				th.Add(x, 1, s)
				th.Compute(400)
				th.Unlock(l, s)
			}
		})
	}
	return sim.Run(p, sim.Config{Seed: 11})
}

func TestELSCReproducesRecordedTime(t *testing.T) {
	rec := buildContended(4, 8)
	res, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != rec.Total {
		t.Fatalf("ELSC replay total = %v, recorded %v — ELSC must reproduce the schedule exactly", res.Total, rec.Total)
	}
	// Replayed final memory must equal the recorded final state.
	if !res.FinalMem.Equal(rec.Trace.FinalMem) {
		t.Fatal("ELSC replay diverged in final memory")
	}
}

func TestELSCStableAcrossSeeds(t *testing.T) {
	rec := buildContended(3, 6)
	var totals []vtime.Duration
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run(rec.Trace, Options{Sched: ELSCS, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		totals = append(totals, res.Total)
	}
	for _, tot := range totals {
		if tot != totals[0] {
			t.Fatalf("ELSC totals vary across seeds: %v", totals)
		}
	}
}

func TestOrigSVariesAcrossSeeds(t *testing.T) {
	rec := buildContended(4, 10)
	seen := map[vtime.Duration]bool{}
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(rec.Trace, Options{Sched: OrigS, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Total] = true
	}
	if len(seen) < 2 {
		t.Fatalf("ORIG-S produced a single total across 10 seeds (%v); expected schedule-dependent variance", seen)
	}
}

func TestSyncSAddsEnforcedWaiting(t *testing.T) {
	rec := buildContended(4, 8)
	elsc, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	sync, err := Run(rec.Trace, Options{Sched: SyncS})
	if err != nil {
		t.Fatal(err)
	}
	if sync.Total < elsc.Total {
		t.Fatalf("SYNC-S total %v < ELSC-S total %v; Kendo-style enforcement should not be faster", sync.Total, elsc.Total)
	}
	if sync.EnforceWait == 0 {
		t.Fatal("SYNC-S reported no enforcement waiting on a contended trace")
	}
	// Deterministic across seeds.
	sync2, err := Run(rec.Trace, Options{Sched: SyncS, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if sync2.Total != sync.Total {
		t.Fatal("SYNC-S must be seed-independent")
	}
}

func TestMemSSlowestAndStable(t *testing.T) {
	rec := buildContended(4, 8)
	elsc, _ := Run(rec.Trace, Options{Sched: ELSCS})
	mem1, err := Run(rec.Trace, Options{Sched: MemS})
	if err != nil {
		t.Fatal(err)
	}
	mem2, err := Run(rec.Trace, Options{Sched: MemS, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	if mem1.Total != mem2.Total {
		t.Fatal("MEM-S must be deterministic")
	}
	if mem1.Total < elsc.Total {
		t.Fatalf("MEM-S total %v < ELSC total %v; serializing shared accesses cannot be faster", mem1.Total, elsc.Total)
	}
}

func TestReversedOrderChangesOrderSensitiveState(t *testing.T) {
	// Two threads write different constants to the same cell: reversing
	// the lock order must flip the final value (true contention), which
	// is exactly the signal the benign/TLCP reversed replay relies on.
	p := sim.NewProgram("ws")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("w.c", 1, "f")
	p.AddThread(func(th *sim.Thread) {
		th.Lock(l, s)
		th.Write(x, 1, s)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *sim.Thread) {
		th.Compute(500)
		th.Lock(l, s)
		th.Write(x, 2, s)
		th.Unlock(l, s)
	})
	rec := sim.Run(p, sim.Config{Seed: 1})
	fwd, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	order := rec.Trace.LockOrder()[l]
	if len(order) != 2 {
		t.Fatalf("lock order = %v", order)
	}
	rev := map[trace.LockID][]int32{l: {order[1], order[0]}}
	bwd, err := Run(rec.Trace, Options{Sched: ELSCS, lockOrder: rev})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.FinalMem.Equal(bwd.FinalMem) {
		t.Fatal("reversed replay produced identical state for order-sensitive writes")
	}
}

func TestReversedOrderKeepsCommutativeState(t *testing.T) {
	// Commutative adds: reversing the order must NOT change final state
	// (benign pattern).
	p := sim.NewProgram("add")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("w.c", 1, "f")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			th.Compute(vtime.Duration(100 * (th.ID() + 1)))
			th.Lock(l, s)
			th.Add(x, 5, s)
			th.Unlock(l, s)
		})
	}
	rec := sim.Run(p, sim.Config{Seed: 1})
	order := rec.Trace.LockOrder()[l]
	rev := map[trace.LockID][]int32{l: {order[1], order[0]}}
	fwd, _ := Run(rec.Trace, Options{Sched: ELSCS})
	bwd, err := Run(rec.Trace, Options{Sched: ELSCS, lockOrder: rev})
	if err != nil {
		t.Fatal(err)
	}
	if !fwd.FinalMem.Equal(bwd.FinalMem) {
		t.Fatal("reversed replay changed state for commutative adds")
	}
}

func TestConstraintsEnforceOrder(t *testing.T) {
	// Build a trace manually: two independent compute events on two
	// threads; a constraint forces T1's event after T0's.
	tr := trace.New("c", 2)
	a := tr.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 1000})
	b := tr.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 10})
	tr.Constraints = []trace.Constraint{{After: a, Before: b}}
	res, err := Run(tr, Options{Sched: OrigS})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventStart[b] < res.EventEnd[a] {
		t.Fatalf("constraint violated: b starts %v before a ends %v", res.EventStart[b], res.EventEnd[a])
	}
	if res.Total != 1010 {
		t.Fatalf("total = %v, want 1010", res.Total)
	}
}

func TestLocksetMutualExclusion(t *testing.T) {
	// Two lockset CSs sharing one auxiliary lock must serialize; two with
	// disjoint locksets must overlap (RULE 4).
	aux1 := trace.AuxLockBase + 1
	aux2 := trace.AuxLockBase + 2
	aux3 := trace.AuxLockBase + 3

	tr := trace.New("ls", 2)
	a0 := tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1}})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 1000})
	r0 := tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1}})
	a1 := tr.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1, aux2}})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 1000})
	tr.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1, aux2}})
	res, err := Run(tr, Options{Sched: OrigS})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventStart[a1] < res.EventEnd[r0] && res.EventStart[a0] < res.EventEnd[a1] {
		// Overlap check: intersecting locksets must not overlap.
		if res.EventStart[a1] < res.EventEnd[r0] {
			t.Fatalf("intersecting locksets overlapped: a1 starts %v, CS0 ends %v", res.EventStart[a1], res.EventEnd[r0])
		}
	}

	// Disjoint locksets: must run in parallel (total << serialized sum).
	tr2 := trace.New("ls2", 2)
	tr2.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1}})
	tr2.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 1000})
	tr2.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1}})
	tr2.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux3}})
	tr2.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 1000})
	tr2.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux3}})
	res2, err := Run(tr2, Options{Sched: OrigS})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Total > 1500 {
		t.Fatalf("disjoint locksets serialized: total %v", res2.Total)
	}
}

func TestDLSSkipsFinishedSources(t *testing.T) {
	aux1 := trace.AuxLockBase + 1
	aux2 := trace.AuxLockBase + 2
	tr := trace.New("dls", 2)
	// Source CS on T0 (owns aux1).
	tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1}, Sources: []int32{-1}})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 100})
	rel := tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1}})
	// Target CS on T1 much later: lockset {aux1 (from source), aux2 (own)}.
	tr.Append(trace.Event{Thread: 1, Kind: trace.KSleep, Cost: 10000})
	acq := tr.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetAcq, Cost: 10},
		trace.EventExt{Locks: []trace.LockID{aux1, aux2}, Sources: []int32{rel, -1}})
	tr.AppendExt(trace.Event{Thread: 1, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux1, aux2}})
	tr.Constraints = []trace.Constraint{{After: rel, Before: acq}}

	with, err := Run(tr, Options{Sched: OrigS, DLS: true, LocksetCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(tr, Options{Sched: OrigS, DLS: false, LocksetCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	// With DLS the finished source's lock is excluded: 1 member acquired
	// in the target CS instead of 2, and less maintenance charged.
	if with.LocksetOverhead >= without.LocksetOverhead {
		t.Fatalf("DLS overhead %v >= non-DLS %v", with.LocksetOverhead, without.LocksetOverhead)
	}
	if with.LocksetMembers >= without.LocksetMembers {
		t.Fatalf("DLS members %d >= non-DLS %d", with.LocksetMembers, without.LocksetMembers)
	}
}

func TestReplayValidatesAgainstRecordedFinalState(t *testing.T) {
	rec := buildContended(3, 5)
	for _, sched := range []Scheduler{OrigS, ELSCS, SyncS, MemS} {
		res, err := Run(rec.Trace, Options{Sched: sched, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		// All writes here are commutative adds, so every schedule must
		// reach the same final state.
		if !res.FinalMem.Equal(rec.Trace.FinalMem) {
			t.Fatalf("%v: final memory diverged", sched)
		}
	}
}

func TestSkipEventRestoresDelta(t *testing.T) {
	p := sim.NewProgram("skip")
	y := p.Mem.Alloc("y", 0)
	s := p.Site("s.c", 1, "f")
	p.AddThread(func(th *sim.Thread) {
		th.SkipRange(500, func(m *memmodel.Memory) { m.Store(y, 77) })
		th.Read(y, s)
	})
	rec := sim.Run(p, sim.Config{Seed: 1})
	res, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMem[y] != 77 {
		t.Fatalf("replayed y = %d, want 77 (skip delta must be restored)", res.FinalMem[y])
	}
}
