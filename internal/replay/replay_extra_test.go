package replay

import (
	"slices"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// withConstraints returns a copy of tr that also carries cs: the engine
// reads a trace's own constraints and a plan's through one CSR build.
func withConstraints(tr *trace.Trace, cs ...trace.Constraint) *trace.Trace {
	c := *tr
	c.Constraints = append(slices.Clip(tr.Constraints), cs...)
	return &c
}

func TestExtraConstraintsForceOrder(t *testing.T) {
	// A constraint added on top of the recorded trace (as a plan's edges
	// are) must hold in the replay.
	tr := trace.New("x", 2)
	a := tr.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 900})
	b := tr.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 10})
	res, err := Run(withConstraints(tr, trace.Constraint{After: a, Before: b}), Options{Sched: OrigS})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventStart[b] < res.EventEnd[a] {
		t.Fatal("extra constraint ignored")
	}
}

func TestBarrierReplaySemantic(t *testing.T) {
	// Two threads with asymmetric pre-barrier work: the replayed barrier
	// must release both at the slower arrival, and the wait must be
	// re-derived (a faster post-transform thread would wait less).
	p := sim.NewProgram("bar")
	b := p.NewBarrier("B", 2)
	s := p.Site("f.c", 1, "f")
	costs := []vtime.Duration{500, 3000}
	for i := 0; i < 2; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			th.Compute(costs[i])
			th.Barrier(b, s)
			th.Compute(100)
		})
	}
	rec := sim.Run(p, sim.Config{Seed: 1})
	res, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != rec.Total {
		t.Fatalf("replay total %v != recorded %v", res.Total, rec.Total)
	}
	// The fast thread's barrier wait is charged as Waited, not CPU.
	if res.Waited < 2000 {
		t.Fatalf("waited = %v, want >= 2400 (the fast thread's barrier wait)", res.Waited)
	}
}

func TestORIGSeedStable(t *testing.T) {
	rec := buildContended(3, 8)
	a, err := Run(rec.Trace, Options{Sched: OrigS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rec.Trace, Options{Sched: OrigS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Fatal("same seed must reproduce the same ORIG-S schedule")
	}
}

func TestDLSCheckCostDefault(t *testing.T) {
	aux := trace.AuxLockBase + 1
	tr := trace.New("d", 1)
	tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux}, Sources: []int32{-1}})
	tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Cost: 10}, trace.EventExt{Locks: []trace.LockID{aux}})
	res, err := Run(tr, Options{Sched: OrigS, DLS: true, LocksetCost: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Single-member lockset under DLS: only the check cost (16/8 = 2).
	if res.LocksetOverhead != 2 {
		t.Fatalf("overhead = %v, want 2 (one END check)", res.LocksetOverhead)
	}
	// Without the cost model the check is free too, in both engines.
	for name, run := range map[string]func(*trace.Trace, Options) (*Result, error){"engine": Run, "reference": runRef} {
		res, err := run(tr, Options{Sched: OrigS, DLS: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.LocksetOverhead != 0 {
			t.Fatalf("%s: overhead = %v with LocksetCost 0, want 0", name, res.LocksetOverhead)
		}
	}
}

func TestSchedulerStrings(t *testing.T) {
	for s, want := range map[Scheduler]string{
		OrigS: "ORIG-S", ELSCS: "ELSC-S", SyncS: "SYNC-S", MemS: "MEM-S",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestMemSRunsSerially(t *testing.T) {
	// Under MEM-S the makespan equals the sum of all event costs (full
	// serialization), modulo barrier releases.
	p := sim.NewProgram("ser")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("f.c", 1, "f")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 5; j++ {
				th.Compute(100)
				th.Lock(l, s)
				th.Add(x, 1, s)
				th.Unlock(l, s)
			}
		})
	}
	rec := sim.Run(p, sim.Config{Seed: 1})
	res, err := Run(rec.Trace, Options{Sched: MemS})
	if err != nil {
		t.Fatal(err)
	}
	var sum vtime.Duration
	for i := range rec.Trace.Events {
		sum += rec.Trace.Events[i].Cost
	}
	if res.Total != sum {
		t.Fatalf("MEM-S total %v != sum of costs %v (must serialize everything)", res.Total, sum)
	}
}

func TestReplayStuckOnImpossibleOrder(t *testing.T) {
	// An ELSC override demanding an acquisition order that contradicts
	// program order within one thread must be detected as stuck, not spin.
	p := sim.NewProgram("imp")
	l := p.NewLock("L")
	s := p.Site("f.c", 1, "f")
	p.AddThread(func(th *sim.Thread) {
		th.Lock(l, s)
		th.Unlock(l, s)
		th.Lock(l, s)
		th.Unlock(l, s)
	})
	rec := sim.Run(p, sim.Config{Seed: 1})
	order := rec.Trace.LockOrder()[l]
	rev := map[trace.LockID][]int32{l: {order[1], order[0]}}
	if _, err := Run(rec.Trace, Options{Sched: ELSCS, lockOrder: rev}); err == nil {
		t.Fatal("impossible order not detected")
	}
}

func TestSpinLockWaitBurnsCPUInReplay(t *testing.T) {
	p := sim.NewProgram("spin")
	l := p.NewSpinLock("S")
	s := p.Site("f.c", 1, "f")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			th.Lock(l, s)
			th.Compute(1500)
			th.Unlock(l, s)
		})
	}
	rec := sim.Run(p, sim.Config{Seed: 1})
	res, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpinWaste == 0 {
		t.Fatal("replay lost the spin-lock CPU burn")
	}
	if res.Waited != 0 {
		t.Fatalf("spin wait misclassified as blocking: %v", res.Waited)
	}
}

// TestRunRejectsWhatTheTraceCannotBack: a thread id, constraint index,
// extension index or lockset source outside the trace, or a plan whose
// columns disagree, that names events or locks the trace does not have,
// that leaves a lock operation unnamed or names one twice, is an error
// from Run under every scheme — the engine's slot-assignment pass is its
// input check — and the pooled engine replays a good trace afterwards.
func TestRunRejectsWhatTheTraceCannotBack(t *testing.T) {
	one := func(threads int, evs ...trace.Event) *trace.Trace {
		tr := trace.New("bad", threads)
		for _, ev := range evs {
			tr.Events = append(tr.Events, ev) // not Append: PerThread must not index first
		}
		return tr
	}
	compute := trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 10}
	aux := []trace.LockID{trace.AuxLockBase + 1}
	badSource := one(1, trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Ext: 1}, trace.Event{Thread: 0, Kind: trace.KLocksetRel, Ext: 2})
	badSource.Exts = []trace.EventExt{{Locks: aux, Sources: []int32{77}}, {Locks: aux}}
	constrained := func(c trace.Constraint) *trace.Trace {
		tr := one(1, compute)
		tr.Constraints = []trace.Constraint{c}
		return tr
	}
	type reject struct {
		name string
		tr   *trace.Trace
		opts Options
	}
	cases := []reject{
		{"thread id past the count", one(1, trace.Event{Thread: 3, Kind: trace.KCompute}), Options{}},
		{"negative thread id", one(2, trace.Event{Thread: -1, Kind: trace.KCompute}), Options{}},
		{"negative thread count", one(-1), Options{}},
		{"constraint after past the events", constrained(trace.Constraint{After: 99, Before: 0}), Options{}},
		{"constraint before past the events", constrained(trace.Constraint{After: 0, Before: 99}), Options{}},
		{"negative constraint index", constrained(trace.Constraint{After: -1, Before: 0}), Options{}},
		{"lockset source past the events", badSource, Options{DLS: true}},
		{"extension past the table", one(1, trace.Event{Thread: 0, Kind: trace.KSkip, Ext: 1}), Options{}},
		{"negative extension", one(1, trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Ext: -1}), Options{}},
	}
	good := buildContended(2, 2).Trace
	want, err := Run(good, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}

	// The plan rows: a recording of true contention and its own plan, each
	// time with one thing the recording cannot back.
	rec, _ := twoWriters()
	tres := transformed(t, rec)
	base := tres.Plan
	n, nev := len(base.Acq), int32(len(rec.Events))
	if _, err := Run(rec, Options{Sched: ELSCS, Plan: base}); err != nil || len(base.Locks) < 2 || len(base.Constraints) == 0 {
		t.Fatalf("fixture: plan of %d members and %d constraints replays to %v", len(base.Locks), len(base.Constraints), err)
	}
	withLockset := 0 // a section that has one
	for base.Off[withLockset+1] == base.Off[withLockset] {
		withLockset++
	}
	notALock := int32(0)
	for rec.Events[notALock].Kind != trace.KCompute {
		notALock++
	}
	for _, c := range []struct {
		name string
		edit func(p *trace.Plan)
	}{
		{"plan: a release short", func(p *trace.Plan) { p.Rel = p.Rel[:n-1] }},
		{"plan: an offset short", func(p *trace.Plan) { p.Off = p.Off[:n] }},
		{"plan: offsets decreasing", func(p *trace.Plan) {
			p.Off[withLockset], p.Off[withLockset+1] = p.Off[withLockset+1], p.Off[withLockset]
		}},
		{"plan: offset past the locks", func(p *trace.Plan) { p.Off[n] = int32(len(p.Locks)) + 1 }},
		{"plan: negative offset", func(p *trace.Plan) { p.Off[0] = -1 }},
		{"plan: a source short", func(p *trace.Plan) { p.Sources = p.Sources[:len(p.Sources)-1] }},
		{"plan: section names a compute event", func(p *trace.Plan) { p.Acq[0] = notALock }},
		{"plan: section names a negative event", func(p *trace.Plan) { p.Rel[0] = -1 }},
		{"plan: section names an event past the trace", func(p *trace.Plan) { p.Acq[0] = nev }},
		{"plan: two sections claim one event", func(p *trace.Plan) { p.Acq[1] = p.Acq[0] }},
		{"plan: a lock operation no section claims", func(p *trace.Plan) {
			p.Acq, p.Rel, p.Off = p.Acq[:n-1], p.Rel[:n-1], p.Off[:n]
		}},
		{"plan: source past the events", func(p *trace.Plan) { p.Sources[0] = nev }},
		{"plan: an original lock as member", func(p *trace.Plan) { p.Locks[0] = 1 }},
		{"plan: auxiliary lock past the ordinals", func(p *trace.Plan) {
			p.Locks[0] = trace.AuxLockBase + trace.LockID(len(p.Locks)) + 1
		}},
		{"plan: constraint past the events", func(p *trace.Plan) {
			p.Constraints = append(p.Constraints, trace.Constraint{After: 0, Before: nev})
		}},
	} {
		p := &trace.Plan{
			Acq: slices.Clone(base.Acq), Rel: slices.Clone(base.Rel), Off: slices.Clone(base.Off),
			Locks: slices.Clone(base.Locks), Sources: slices.Clone(base.Sources), Constraints: slices.Clone(base.Constraints),
		}
		c.edit(p)
		cases = append(cases, reject{c.name, rec, Options{Plan: p}})
	}
	cases = append(cases, reject{"plan: over the already transformed trace", tres.Trace, Options{Plan: base}})

	for _, c := range cases {
		for _, sch := range allScheds {
			c.opts.Sched = sch
			if res, err := Run(c.tr, c.opts); err == nil {
				t.Errorf("%s under %v: replayed to %v, want an error", c.name, sch, res.Total)
			}
		}
		if got, err := Run(good, Options{Sched: ELSCS}); err != nil || got.Total != want.Total || got.ReadHash != want.ReadHash {
			t.Fatalf("after %s: good trace replayed to %v, %v", c.name, got, err)
		}
	}
}
