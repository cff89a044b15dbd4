package transform

import (
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/verify"
	"perfplay/internal/vtime"
)

// pipeline records a program, identifies ULCPs and applies the transform.
func pipeline(t *testing.T, build func(p *sim.Program)) (*sim.Result, []*trace.CritSec, *ulcp.Report, *Result) {
	t.Helper()
	p := sim.NewProgram("t")
	build(p)
	rec := sim.Run(p, sim.Config{Seed: 13})
	css := rec.Trace.ExtractCS()
	rep := ulcp.Identify(rec.Trace, css, ulcp.Options{})
	res, err := Apply(rec.Trace, css, rep)
	if err != nil {
		t.Fatal(err)
	}
	return rec, css, rep, res
}

func TestTransformRemovesStandaloneSync(t *testing.T) {
	// Pure read-read workload: every CS is standalone, all sync removed.
	_, css, _, res := pipeline(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 9)
		s := p.Site("f.c", 1, "r")
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 5; j++ {
					th.Lock(l, s)
					th.Read(x, s)
					th.Unlock(l, s)
					th.Compute(100)
				}
			})
		}
	})
	if res.RemovedSync != len(css) {
		t.Fatalf("removed %d of %d CSs; all read-only CSs are standalone", res.RemovedSync, len(css))
	}
	if res.LocksetNodes != 0 {
		t.Fatalf("lockset nodes = %d, want 0", res.LocksetNodes)
	}
	if got := res.Trace.CountKind(trace.KLockAcq); got != 0 {
		t.Fatalf("transformed trace still has %d original acquisitions", got)
	}
	if len(res.Trace.Constraints) != 0 {
		t.Fatalf("constraints = %d, want 0 without causal edges", len(res.Trace.Constraints))
	}
}

func TestTransformIndexAlignment(t *testing.T) {
	rec, _, _, res := pipeline(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "w")
		for i := 0; i < 2; i++ {
			i := i
			p.AddThread(func(th *sim.Thread) {
				th.Compute(vtime.Duration(100 * (i + 1)))
				th.Lock(l, s)
				th.Read(x, s)
				th.Write(x, int64(i+1), s)
				th.Unlock(l, s)
			})
		}
	})
	if len(res.Trace.Events) != len(rec.Trace.Events) {
		t.Fatal("transformed trace must be index-aligned with the original")
	}
	for i := range rec.Trace.Events {
		if rec.Trace.Events[i].Thread != res.Trace.Events[i].Thread {
			t.Fatalf("event %d changed thread", i)
		}
	}
}

func TestTransformPreservesTrueContentionOrder(t *testing.T) {
	// Conflicting writes: the transformed replay must keep the recorded
	// order via constraints (RULE 2) and reproduce the final state.
	rec, _, rep, res := pipeline(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "w")
		for i := 0; i < 3; i++ {
			i := i
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 4; j++ {
					th.Compute(vtime.Duration(130*i + 90*j))
					th.Lock(l, s)
					th.Read(x, s)
					th.Write(x, int64(i*100+j), s)
					th.Unlock(l, s)
				}
			})
		}
	})
	if rep.Counts[ulcp.TLCP] == 0 {
		t.Fatal("expected true contention")
	}
	if res.Constraints == 0 {
		t.Fatal("no constraints emitted for causal edges")
	}
	orig, err := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	free, err := replay.Run(res.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if !free.FinalMem.Equal(orig.FinalMem) {
		t.Fatal("transformed replay diverged from original final state")
	}
	if free.ReadHash != orig.ReadHash {
		t.Fatal("transformed replay observed different read values")
	}
}

func TestTransformNullLockRemoval(t *testing.T) {
	_, _, rep, res := pipeline(t, func(p *sim.Program) {
		l := p.NewLock("L")
		s := p.Site("f.c", 1, "nl")
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 3; j++ {
					th.Lock(l, s)
					th.Compute(50)
					th.Unlock(l, s)
					th.Compute(80)
				}
			})
		}
	})
	if rep.Counts[ulcp.NullLock] == 0 {
		t.Fatal("expected null-locks")
	}
	if res.RemovedSync != 6 {
		t.Fatalf("removed = %d, want all 6 null CSs", res.RemovedSync)
	}
}

func TestTransformLocksetStructure(t *testing.T) {
	_, css, _, res := pipeline(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "w")
		for i := 0; i < 2; i++ {
			i := i
			p.AddThread(func(th *sim.Thread) {
				th.Compute(vtime.Duration(100 * (i + 1)))
				th.Lock(l, s)
				th.Read(x, s)
				th.Write(x, int64(i+77), s)
				th.Unlock(l, s)
			})
		}
	})
	// Two conflicting CSs: source gets its own aux lock; target inherits.
	var acq *trace.EventExt
	for i := range res.Trace.Events {
		e := &res.Trace.Events[i]
		if x := res.Trace.Ext(e); e.Kind == trace.KLocksetAcq && len(x.Locks) == 1 && len(x.Sources) == 1 && x.Sources[0] >= 0 {
			acq = x
		}
	}
	if acq == nil {
		t.Fatal("no inheriting lockset acquisition found")
	}
	// Its source must be the release event of the other CS.
	src := acq.Sources[0]
	found := false
	for _, cs := range css {
		if cs.RelEv == src {
			found = true
		}
	}
	if !found {
		t.Fatal("lockset source does not point at a CS release event")
	}
	if !acq.Locks[0].IsAux() {
		t.Fatal("lockset member is not an auxiliary lock")
	}
}

func TestTransformValidates(t *testing.T) {
	rec, css, rep, res := pipeline(t, func(p *sim.Program) {
		l1, l2 := p.NewLock("L1"), p.NewLock("L2")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "n")
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 3; j++ {
					th.Lock(l1, s)
					th.Lock(l2, s) // nested
					th.Add(x, 1, s)
					th.Unlock(l2, s)
					th.Unlock(l1, s)
					th.Compute(70)
				}
			})
		}
	})
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("transformed nested-lock trace invalid: %v", err)
	}
	_ = rec
	_ = css
	_ = rep
}

// TestTransformTheorem1Quick: for randomized programs, the transformation
// must always satisfy Theorem 1 (same outcome, or races reported) and
// never slow the replay down.
func TestTransformTheorem1Quick(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		p := sim.NewProgram("q")
		nlocks := 1 + int(seed%3)
		var locks []trace.LockID
		for i := 0; i < nlocks; i++ {
			locks = append(locks, p.NewLock("L"))
		}
		cells := p.Mem.AllocN("c", 3, 0)
		s := p.Site("q.c", 1, "f")
		for i := 0; i < 2+int(seed%2); i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 7; j++ {
					th.Compute(vtime.Duration(40 + th.Intn(300)))
					l := locks[th.Intn(len(locks))]
					th.Lock(l, s)
					switch th.Intn(4) {
					case 0: // null
					case 1:
						th.Read(cells[th.Intn(len(cells))], s)
					case 2:
						th.Add(cells[th.Intn(len(cells))], 1, s)
					default:
						c := cells[th.Intn(len(cells))]
						th.Read(c, s)
						th.Add(c, 2, s)
					}
					th.Compute(vtime.Duration(30 + th.Intn(200)))
					th.Unlock(l, s)
				}
			})
		}
		rec := sim.Run(p, sim.Config{Seed: seed})
		css := rec.Trace.ExtractCS()
		rep := ulcp.Identify(rec.Trace, css, ulcp.Options{})
		res, err := Plan(css, rep)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		orig, err := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		free, err := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS, Plan: res.Plan})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chk := verify.Check(rec.Trace, res.Plan, orig, free, nil, 8)
		if !chk.Ok() {
			t.Fatalf("seed %d: theorem 1 violated\n%s", seed, chk)
		}
		if chk.Speedup > 1.0001 {
			t.Fatalf("seed %d: transformation slowed the replay (%.4fx)", seed, chk.Speedup)
		}
	}
}

// TestTransformKeepsSkipDeltas: a selectively recorded range survives the
// transformation — its event keeps the extension entry it had (the
// transformed table starts with the source's), so it restores the same
// delta, and the two traces replay to the same final memory.
func TestTransformKeepsSkipDeltas(t *testing.T) {
	rec, _, _, res := pipeline(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x, y := p.Mem.Alloc("x", 0), p.Mem.Alloc("y", 0)
		s := p.Site("f.c", 1, "n")
		for i := 0; i < 2; i++ {
			i := i
			p.AddThread(func(th *sim.Thread) {
				th.SkipRange(500, func(m *memmodel.Memory) { m.Store(y, m.Load(y)+int64(i)+1) })
				th.Lock(l, s)
				th.Write(x, th.Read(x, s)+1, s)
				th.Unlock(l, s)
			})
		}
	})
	if res.LocksetNodes == 0 {
		t.Fatal("fixture has no lockset node: the table gained nothing behind the skips")
	}
	skips := 0
	for i := range rec.Trace.Events {
		if rec.Trace.Events[i].Kind != trace.KSkip {
			continue
		}
		skips++
		before, after := rec.Trace.Ext(&rec.Trace.Events[i]).Delta, res.Trace.Ext(&res.Trace.Events[i]).Delta
		if len(before) == 0 || !before.Equal(after) {
			t.Fatalf("event %d: skip delta %v became %v", i, before, after)
		}
	}
	if skips != 2 {
		t.Fatalf("%d skip events, want 2", skips)
	}
	orig, err := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	free, err := replay.Run(res.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if !orig.FinalMem.Equal(free.FinalMem) || !free.FinalMem.Equal(rec.Trace.FinalMem) {
		t.Fatalf("final memory: original replay %v, transformed replay %v, recorded %v", orig.FinalMem, free.FinalMem, rec.Trace.FinalMem)
	}
}
