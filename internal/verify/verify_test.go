package verify

import (
	"strings"
	"testing"

	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
)

// replays runs the two ELSC replays Check reads — the recording's and the
// recording's under plan — as the pipeline does.
func replays(t testing.TB, tr *trace.Trace, plan *trace.Plan) (orig, free *replay.Result) {
	t.Helper()
	orig, err := replay.Run(tr, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	free, err = replay.Run(tr, replay.Options{Sched: replay.ELSCS, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	return orig, free
}

// checkProgram records the program, plans its ULCP-free schedule and
// checks Theorem 1 on it, uncapped.
func checkProgram(t *testing.T, build func(p *sim.Program)) *Report {
	t.Helper()
	p := sim.NewProgram("v")
	build(p)
	tr := sim.Run(p, sim.Config{Seed: 6}).Trace
	css := tr.ExtractCS()
	res, err := transform.Plan(css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	orig, free := replays(t, tr, res.Plan)
	return Check(tr, res.Plan, orig, free, nil, 0)
}

func TestTheorem1PreservedOnCleanWorkload(t *testing.T) {
	rep := checkProgram(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 3)
		s := p.Site("v.c", 1, "r")
		for i := 0; i < 3; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 6; j++ {
					th.Lock(l, s)
					th.Read(x, s)
					th.Compute(400)
					th.Unlock(l, s)
					th.Compute(vtime.Duration(100 + 40*int(th.ID())))
				}
			})
		}
	})
	if rep.Verdict != SemanticsPreserved {
		t.Fatalf("verdict = %v, want semantics-preserved\n%s", rep.Verdict, rep)
	}
	if !rep.Ok() {
		t.Fatal("Ok() false on a preserved transform")
	}
	if rep.Speedup >= 1.0 {
		t.Fatalf("speedup = %v, want < 1 (read-only parallelization)", rep.Speedup)
	}
}

func TestTheorem1PreservedOnTrueContention(t *testing.T) {
	rep := checkProgram(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("v.c", 1, "w")
		for i := 0; i < 2; i++ {
			i := i
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 5; j++ {
					th.Compute(vtime.Duration(150 * (i + 1)))
					th.Lock(l, s)
					th.Read(x, s)
					th.Write(x, int64(i*100+j), s)
					th.Unlock(l, s)
				}
			})
		}
	})
	// RULE 2 keeps the conflicting order: semantics preserved.
	if rep.Verdict != SemanticsPreserved {
		t.Fatalf("verdict = %v, want semantics-preserved\n%s", rep.Verdict, rep)
	}
}

// TestTheorem1ReportsRacesOnDivergence hand-builds a divergent plan: two
// order-sensitive critical sections lose their lock, with no lockset and
// no constraint in its place. As recorded, T1 waits for T0's section; under
// the plan it runs first, its read observes a different value and the
// final memory changes, so the check must attribute the divergence to the
// races between the two sections — and say what checkRef says over the
// plan written out as a trace.
func TestTheorem1ReportsRacesOnDivergence(t *testing.T) {
	tr := trace.New("bad", 2)
	l := trace.LockID(1)
	s := tr.Sites.Intern(trace.Site{File: "bad.c", Line: 5})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 50, Time: 50})
	a0 := tr.Append(trace.Event{Thread: 0, Kind: trace.KLockAcq, Lock: l, Cost: 10, Time: 60, Site: s})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KRead, Addr: 1, Cost: 10, Time: 70, Site: s})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 1, Value: 11, Cost: 10, Time: 80, Site: s})
	r0 := tr.Append(trace.Event{Thread: 0, Kind: trace.KLockRel, Lock: l, Cost: 10, Time: 90, Site: s})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KCompute, Cost: 10, Time: 10})
	a1 := tr.Append(trace.Event{Thread: 1, Kind: trace.KLockAcq, Lock: l, Cost: 10, Time: 100, Site: s})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KRead, Addr: 1, Cost: 10, Time: 110, Site: s})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 1, Value: 22, Cost: 10, Time: 120, Site: s})
	r1 := tr.Append(trace.Event{Thread: 1, Kind: trace.KLockRel, Lock: l, Cost: 10, Time: 130, Site: s})
	tr.TotalTime = 130
	plan := &trace.Plan{Acq: []int32{a0, a1}, Rel: []int32{r0, r1}, Off: []int32{0, 0, 0}}

	orig, free := replays(t, tr, plan)
	rep := Check(tr, plan, orig, free, nil, 0)
	if rep.Verdict != RacesReported {
		t.Fatalf("verdict = %v, want races-reported\n%s", rep.Verdict, rep)
	}
	if len(rep.Races) == 0 {
		t.Fatal("no races attached")
	}
	if !rep.Ok() {
		t.Fatal("races-reported still satisfies Theorem 1")
	}
	if !strings.Contains(rep.String(), "race") {
		t.Fatalf("report rendering: %s", rep)
	}

	// The same plan written out: the lock operations become zero-cost
	// compute events.
	mat := tr.Aligned(0)
	for _, i := range []int32{a0, r0, a1, r1} {
		e := &mat.Events[i]
		e.Kind, e.Lock, e.Cost = trace.KCompute, trace.NoLock, 0
	}
	want, err := checkRef(tr, &transform.Result{Plan: plan, Trace: mat}, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, "divergent plan", rep, want)
	if capped := Check(tr, plan, orig, free, nil, 1); len(capped.Races) != 1 {
		t.Fatalf("maxRaces 1 kept %d races", len(capped.Races))
	}
}

func TestVerifyPipelineEndToEnd(t *testing.T) {
	// Every transformed app trace must satisfy Theorem 1.
	rep := checkProgram(t, func(p *sim.Program) {
		l1, l2 := p.NewLock("L1"), p.NewLock("L2")
		x := p.Mem.Alloc("x", 0)
		y := p.Mem.Alloc("y", 9)
		s := p.Site("v.c", 1, "m")
		for i := 0; i < 3; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 5; j++ {
					th.Lock(l1, s)
					th.Add(x, 1, s)
					th.Unlock(l1, s)
					th.Lock(l2, s)
					th.Read(y, s)
					th.Compute(300)
					th.Unlock(l2, s)
					th.Compute(vtime.Duration(80 + 30*j))
				}
			})
		}
	})
	if !rep.Ok() {
		t.Fatalf("Theorem 1 violated:\n%s", rep)
	}
}
