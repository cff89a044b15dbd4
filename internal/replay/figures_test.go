package replay

import (
	"testing"
	"testing/quick"

	"perfplay/internal/sim"
	"perfplay/internal/simtest"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// TestFigure11OrderSensitivity reproduces the paper's Fig. 11: two
// critical sections contending for one lock with asymmetric successor
// segments — if A wins the program takes 8s, if B wins it takes 9s — so
// the lock interleaving alone changes the measured performance, which is
// why ELSC pins it.
func TestFigure11OrderSensitivity(t *testing.T) {
	build := func() *sim.Result {
		p := sim.NewProgram("fig11")
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("fig11.c", 1, "f")
		// T1: 3s precursor, CS A (2s), 3s successor => A path.
		p.AddThread(func(th *sim.Thread) {
			th.Compute(3000)
			th.Lock(l, s)
			th.Add(x, 1, s)
			th.Compute(2000)
			th.Unlock(l, s)
			th.Compute(3000)
		})
		// T2: 3s precursor, CS B (2s), 4s successor => B path.
		p.AddThread(func(th *sim.Thread) {
			th.Compute(3000)
			th.Lock(l, s)
			th.Add(x, 1, s)
			th.Compute(2000)
			th.Unlock(l, s)
			th.Compute(4000)
		})
		return sim.Run(p, sim.Config{Seed: 8})
	}
	rec := build()
	order := rec.Trace.LockOrder()[1]
	if len(order) != 2 {
		t.Fatalf("lock order = %v", order)
	}

	// Forward order (as recorded) and reversed order produce different
	// totals — exactly the 8s-vs-9s fluctuation of Fig. 11.
	fwd, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Run(rec.Trace, Options{Sched: ELSCS,
		lockOrder: map[trace.LockID][]int32{1: {order[1], order[0]}}})
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Total == rev.Total {
		t.Fatalf("both orders cost %v; Fig. 11 requires order-dependent time", fwd.Total)
	}
	// The difference equals the successor-segment asymmetry (1s), give or
	// take lock-op costs.
	diff := fwd.Total - rev.Total
	if diff < 0 {
		diff = -diff
	}
	if diff < 500 || diff > 1500 {
		t.Fatalf("order cost difference = %v, want ~1000", diff)
	}
}

// TestFigure12ELSCvsKendo reproduces the Fig. 12 narrative: Kendo
// (SYNC-S) enforces a fixed input-driven order regardless of the actual
// schedule, deferring acquisitions and extending execution, while ELSC
// follows the schedule that actually happened and adds nothing.
func TestFigure12ELSCvsKendo(t *testing.T) {
	p := sim.NewProgram("fig12")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("fig12.c", 1, "f")
	// T0 reaches its acquisitions much later than T1; Kendo still makes
	// T1 wait for T0's logical progress.
	p.AddThread(func(th *sim.Thread) {
		for j := 0; j < 6; j++ {
			th.Compute(1200)
			th.Lock(l, s)
			th.Add(x, 1, s)
			th.Unlock(l, s)
		}
	})
	p.AddThread(func(th *sim.Thread) {
		for j := 0; j < 6; j++ {
			th.Compute(200)
			th.Lock(l, s)
			th.Add(x, 1, s)
			th.Unlock(l, s)
		}
	})
	rec := sim.Run(p, sim.Config{Seed: 4})
	elsc, err := Run(rec.Trace, Options{Sched: ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	kendo, err := Run(rec.Trace, Options{Sched: SyncS})
	if err != nil {
		t.Fatal(err)
	}
	if elsc.Total != rec.Total {
		t.Fatalf("ELSC total %v != recorded %v (schedule-driven adds nothing)", elsc.Total, rec.Total)
	}
	if kendo.Total <= elsc.Total {
		t.Fatalf("Kendo total %v <= ELSC %v; input-driven enforcement must defer the fast thread", kendo.Total, elsc.Total)
	}
	if kendo.EnforceWait == 0 {
		t.Fatal("Kendo reported no enforced waiting")
	}
}

// randomProgram is the shared generator's plain form: critical sections
// only.
func randomProgram(seed int64, threads, locks, iters int) *sim.Result {
	return simtest.RandomProgram(seed, threads, locks, iters, 0)
}

// Property: for any program, ELSC reproduces the recorded makespan and
// final state exactly, and all four schedulers reach the same final state
// (all updates here are commutative).
func TestSchedulerPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rec := randomProgram(seed, 2+int(uint64(seed)%3), 1+int(uint64(seed)%3), 6)
		elsc, err := Run(rec.Trace, Options{Sched: ELSCS})
		if err != nil || elsc.Total != rec.Total {
			return false
		}
		for _, sch := range []Scheduler{OrigS, SyncS, MemS} {
			res, err := Run(rec.Trace, Options{Sched: sch, Seed: seed})
			if err != nil {
				return false
			}
			if !res.FinalMem.Equal(rec.Trace.FinalMem) {
				return false
			}
			// Full serialization can never beat any parallel schedule.
			// (SYNC-S may: a different grant order sometimes happens to be
			// faster than the recorded one — Fig. 11 cuts both ways.)
			if sch == MemS && res.Total < elsc.Total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every event's start is within [0, Total] and per-thread starts
// are monotone under every scheduler.
func TestEventTimesMonotoneQuick(t *testing.T) {
	f := func(seed int64, schedPick uint8) bool {
		rec := randomProgram(seed, 3, 2, 5)
		sch := []Scheduler{OrigS, ELSCS, SyncS, MemS}[schedPick%4]
		res, err := Run(rec.Trace, Options{Sched: sch, Seed: seed})
		if err != nil {
			return false
		}
		for t, evs := range rec.Trace.PerThread() {
			var last vtime.Time
			for _, idx := range evs {
				if res.EventStart[idx] < last {
					return false
				}
				if res.EventEnd[idx] < res.EventStart[idx] {
					return false
				}
				last = res.EventStart[idx]
				_ = t
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
