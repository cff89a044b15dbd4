package elision

import (
	"testing"

	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/vtime"
)

// readOnly builds the Fig. 4-style workload LE excels at: contended
// read-only critical sections.
func readOnly(threads, iters int) *sim.Result {
	p := sim.NewProgram("ro")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 5)
	s := p.Site("ro.c", 1, "r")
	for i := 0; i < threads; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < iters; j++ {
				th.Lock(l, s)
				th.Read(x, s)
				th.Compute(600)
				th.Unlock(l, s)
				th.Compute(100)
			}
		})
	}
	return sim.Run(p, sim.Config{Seed: 3})
}

// conflicting builds a workload where every critical section really
// conflicts — the regime where LE pays rollbacks. The update is a read
// followed by an increment: order-sensitive enough to abort concurrent
// speculation, while re-executing correctly under any commit order (a
// trace cannot recompute stale absolute stores).
func conflicting(threads, iters int) *sim.Result {
	p := sim.NewProgram("wr")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("wr.c", 1, "w")
	for i := 0; i < threads; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < iters; j++ {
				th.Lock(l, s)
				th.Read(x, s)
				th.Compute(400)
				th.Add(x, int64(i+1), s)
				th.Unlock(l, s)
				th.Compute(100)
			}
		})
	}
	return sim.Run(p, sim.Config{Seed: 3})
}

func TestElisionParallelizesReadOnly(t *testing.T) {
	rec := readOnly(4, 10)
	le, err := Run(rec.Trace, Options{Seed: 1, falseAbortPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS})
	if le.Total >= orig.Total {
		t.Fatalf("LE total %v >= locked total %v; read-only sections must parallelize", le.Total, orig.Total)
	}
	if le.Aborts != 0 {
		t.Fatalf("aborts = %d on a read-only workload, want 0", le.Aborts)
	}
	if le.Commits != 40 {
		t.Fatalf("commits = %d, want 40", le.Commits)
	}
	if !le.FinalMem.Equal(rec.Trace.FinalMem) {
		t.Fatal("elided execution changed final state")
	}
}

func TestElisionAbortsOnRealConflicts(t *testing.T) {
	rec := conflicting(4, 8)
	le, err := Run(rec.Trace, Options{Seed: 1, falseAbortPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	if le.Aborts == 0 {
		t.Fatal("no aborts on a fully conflicting workload")
	}
	if le.WastedWork == 0 {
		t.Fatal("aborts must waste work")
	}
	// Every increment must survive: commits + fallbacks re-execute until
	// the update lands exactly once.
	var want int64
	for i := 0; i < 4; i++ {
		want += int64(i+1) * 8
	}
	var got int64
	for a, name := range rec.Trace.MemNames {
		if name == "x" {
			got = le.FinalMem[a]
		}
	}
	if got != want {
		t.Fatalf("final x = %d, want %d (lost or doubled updates)", got, want)
	}
}

func TestElisionFallbackAfterRetries(t *testing.T) {
	rec := conflicting(6, 6)
	le, err := Run(rec.Trace, Options{Seed: 1, maxRetries: 1, falseAbortPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	if le.Fallbacks == 0 {
		t.Fatal("heavy conflicts with maxRetries=1 must trigger fallbacks")
	}
}

func TestFalseAborts(t *testing.T) {
	rec := readOnly(2, 30)
	le, err := Run(rec.Trace, Options{Seed: 9, falseAbortPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	if le.FalseAborts == 0 {
		t.Fatal("20% false-abort rate produced none over 60 sections")
	}
	// False aborts retry and still complete; final state intact.
	if !le.FinalMem.Equal(rec.Trace.FinalMem) {
		t.Fatal("false aborts corrupted final state")
	}
	if le.AbortRate() <= 0 {
		t.Fatal("abort rate must be positive")
	}
}

func TestElisionDeterministic(t *testing.T) {
	rec := conflicting(3, 6)
	a, err := Run(rec.Trace, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rec.Trace, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.Aborts != b.Aborts || a.FalseAborts != b.FalseAborts {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestElisionRejectsTransformedTraces(t *testing.T) {
	rec := readOnly(2, 2)
	tr := rec.Trace
	// Fake a lockset event.
	tr.Events[3].Kind = 6 // KLocksetAcq
	if _, err := Run(tr, Options{}); err == nil {
		t.Fatal("transformed trace must be rejected")
	}
}

func TestNestedLocksFlatten(t *testing.T) {
	p := sim.NewProgram("nested")
	l1, l2 := p.NewLock("L1"), p.NewLock("L2")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("n.c", 1, "f")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 4; j++ {
				th.Lock(l1, s)
				th.Lock(l2, s)
				th.Add(x, 1, s)
				th.Unlock(l2, s)
				th.Unlock(l1, s)
				th.Compute(vtime.Duration(100 + 37*j))
			}
		})
	}
	rec := sim.Run(p, sim.Config{Seed: 2})
	le, err := Run(rec.Trace, Options{Seed: 2, falseAbortPct: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !le.FinalMem.Equal(rec.Trace.FinalMem) {
		t.Fatalf("nested-lock elision corrupted state")
	}
}
