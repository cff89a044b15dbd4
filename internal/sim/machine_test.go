package sim

import (
	"perfplay/internal/memmodel"
	"testing"

	"perfplay/internal/replay"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

func site(p *Program, line int) trace.SiteID {
	return p.Site("test.c", line, "f")
}

func TestSingleThreadCompute(t *testing.T) {
	p := NewProgram("t")
	p.AddThread(func(th *Thread) {
		th.Compute(100)
		th.Compute(200)
	})
	res := Run(p, Config{Seed: 1})
	if res.Total != 300 {
		t.Fatalf("total = %v, want 300", res.Total)
	}
	if res.PerThreadCPU[0] != 300 {
		t.Fatalf("cpu = %v, want 300", res.PerThreadCPU[0])
	}
	if got := res.Trace.CountKind(trace.KCompute); got != 2 {
		t.Fatalf("compute events = %d, want 2", got)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	p := NewProgram("t")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := site(p, 1)
	for i := 0; i < 4; i++ {
		p.AddThread(func(th *Thread) {
			for j := 0; j < 10; j++ {
				th.Lock(l, s)
				v := th.Read(x, s)
				th.Compute(50)
				th.Write(x, v+1, s)
				th.Unlock(l, s)
			}
		})
	}
	res := Run(p, Config{Seed: 7})
	if got := p.Mem.Load(x); got != 40 {
		t.Fatalf("x = %d, want 40 (lost update => mutual exclusion broken)", got)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if got := res.Trace.DynamicLocks(); got != 40 {
		t.Fatalf("dynamic locks = %d, want 40", got)
	}
}

func TestContentionSerializesTime(t *testing.T) {
	// Two threads each hold the same lock for 1000 ticks: the makespan
	// must be at least 2000 (serialized), and waiting time recorded.
	p := NewProgram("t")
	l := p.NewLock("L")
	s := site(p, 1)
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *Thread) {
			th.Lock(l, s)
			th.Compute(1000)
			th.Unlock(l, s)
		})
	}
	res := Run(p, Config{Seed: 1})
	if res.Total < 2000 {
		t.Fatalf("total = %v, want >= 2000 (critical sections must serialize)", res.Total)
	}
	if res.Waited <= 0 {
		t.Fatalf("waited = %v, want > 0", res.Waited)
	}
	if res.SpinWaste != 0 {
		t.Fatalf("spin waste = %v on a blocking lock, want 0", res.SpinWaste)
	}
}

func TestSpinLockBurnsCPU(t *testing.T) {
	p := NewProgram("t")
	l := p.NewSpinLock("S")
	s := site(p, 1)
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *Thread) {
			th.Lock(l, s)
			th.Compute(1000)
			th.Unlock(l, s)
		})
	}
	res := Run(p, Config{Seed: 1})
	if res.SpinWaste <= 0 {
		t.Fatalf("spin waste = %v, want > 0", res.SpinWaste)
	}
	if !res.Trace.SpinLocks[l] {
		t.Fatal("trace should mark the lock as spinning")
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *Program {
		p := NewProgram("t")
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := site(p, 1)
		for i := 0; i < 3; i++ {
			p.AddThread(func(th *Thread) {
				for j := 0; j < 20; j++ {
					th.Compute(vtime.Duration(10 + th.Intn(100)))
					th.Lock(l, s)
					th.Add(x, 1, s)
					th.Unlock(l, s)
				}
			})
		}
		return p
	}
	r1 := Run(build(), Config{Seed: 42})
	r2 := Run(build(), Config{Seed: 42})
	if r1.Total != r2.Total {
		t.Fatalf("totals differ: %v vs %v", r1.Total, r2.Total)
	}
	if len(r1.Trace.Events) != len(r2.Trace.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(r1.Trace.Events), len(r2.Trace.Events))
	}
	for i := range r1.Trace.Events {
		if e1, e2 := r1.Trace.Events[i], r2.Trace.Events[i]; e1 != e2 {
			t.Fatalf("event %d differs: %v vs %v", i, e1, e2)
		}
	}
	// A different seed may change compute costs (thread RNG) but must
	// still produce a valid trace.
	r3 := Run(build(), Config{Seed: 43})
	if err := r3.Trace.Validate(); err != nil {
		t.Fatalf("seed 43 trace invalid: %v", err)
	}
}

func TestTryLock(t *testing.T) {
	p := NewProgram("t")
	l := p.NewLock("L")
	got := p.Mem.Alloc("got", 0)
	s := site(p, 1)
	p.AddThread(func(th *Thread) {
		th.Lock(l, s)
		th.Compute(5000)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) {
		th.Compute(100) // ensure T0 holds the lock already
		n := 0
		for !th.TryLock(l, s) {
			n++
			th.Compute(50)
			if n > 1000 {
				t.Error("trylock never succeeded")
				return
			}
		}
		th.Unlock(l, s)
		th.Write(got, int64(n), s)
	})
	res := Run(p, Config{Seed: 3})
	if p.Mem.Load(got) == 0 {
		t.Fatal("expected at least one failed trylock spin")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

func TestCondSignalWait(t *testing.T) {
	p := NewProgram("t")
	l := p.NewLock("L")
	c := p.NewCond("C")
	ready := p.Mem.Alloc("ready", 0)
	s := site(p, 1)
	p.AddThread(func(th *Thread) {
		th.Lock(l, s)
		for th.Read(ready, s) == 0 {
			th.Wait(c, l, s)
		}
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) {
		th.Compute(500)
		th.Lock(l, s)
		th.Write(ready, 1, s)
		th.Unlock(l, s)
		th.Signal(c, s)
	})
	res := Run(p, Config{Seed: 1})
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	// cond wait emits an unlock + re-acquire pair, so the waiter produces
	// at least 2 acquisitions.
	if got := res.Trace.DynamicLocks(); got < 3 {
		t.Fatalf("dynamic locks = %d, want >= 3", got)
	}
}

func TestCondTimedWaitTimesOut(t *testing.T) {
	p := NewProgram("t")
	l := p.NewLock("L")
	c := p.NewCond("C")
	out := p.Mem.Alloc("out", 0)
	s := site(p, 1)
	p.AddThread(func(th *Thread) {
		th.Lock(l, s)
		ok := th.TimedWait(c, l, 1000, s)
		th.Unlock(l, s)
		if ok {
			th.Write(out, 1, s)
		} else {
			th.Write(out, 2, s)
		}
	})
	res := Run(p, Config{Seed: 1})
	if got := p.Mem.Load(out); got != 2 {
		t.Fatalf("out = %d, want 2 (timeout)", got)
	}
	if res.Total < 1000 {
		t.Fatalf("total = %v, want >= 1000 (the timeout must elapse)", res.Total)
	}
}

func TestCondTimedWaitSignalled(t *testing.T) {
	p := NewProgram("t")
	l := p.NewLock("L")
	c := p.NewCond("C")
	out := p.Mem.Alloc("out", 0)
	s := site(p, 1)
	p.AddThread(func(th *Thread) {
		th.Lock(l, s)
		ok := th.TimedWait(c, l, 100000, s)
		th.Unlock(l, s)
		if ok {
			th.Write(out, 1, s)
		} else {
			th.Write(out, 2, s)
		}
	})
	p.AddThread(func(th *Thread) {
		th.Compute(300)
		th.Signal(c, s)
	})
	Run(p, Config{Seed: 1})
	if got := p.Mem.Load(out); got != 1 {
		t.Fatalf("out = %d, want 1 (signalled)", got)
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	p := NewProgram("t")
	b := p.NewBarrier("B", 3)
	after := p.Mem.AllocN("after", 3, 0)
	s := site(p, 1)
	costs := []vtime.Duration{100, 2000, 700}
	for i := 0; i < 3; i++ {
		i := i
		p.AddThread(func(th *Thread) {
			th.Compute(costs[i])
			th.Barrier(b, s)
			th.Write(after[i], int64(th.Now()), s)
		})
	}
	res := Run(p, Config{Seed: 1})
	t0 := p.Mem.Load(after[0])
	for i := 1; i < 3; i++ {
		// All threads resume at the same post-barrier instant (± the
		// memory-write cost of the probe itself).
		if p.Mem.Load(after[i]) != t0 {
			t.Fatalf("thread %d resumed at %d, thread 0 at %d", i, p.Mem.Load(after[i]), t0)
		}
	}
	if res.Total < 2000 {
		t.Fatalf("total = %v, want >= slowest arrival 2000", res.Total)
	}
}

func TestBarrierReusable(t *testing.T) {
	p := NewProgram("t")
	b := p.NewBarrier("B", 2)
	s := site(p, 1)
	n := p.Mem.Alloc("n", 0)
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *Thread) {
			for j := 0; j < 3; j++ {
				th.Compute(vtime.Duration(100 * (th.Intn(5) + 1)))
				th.Barrier(b, s)
			}
			th.Add(n, 1, s)
		})
	}
	Run(p, Config{Seed: 9})
	if got := p.Mem.Load(n); got != 2 {
		t.Fatalf("n = %d, want 2", got)
	}
}

func TestSkipRangeRecordsDelta(t *testing.T) {
	p := NewProgram("t")
	x := p.Mem.Alloc("x", 1)
	y := p.Mem.Alloc("y", 0)
	s := site(p, 1)
	p.AddThread(func(th *Thread) {
		// A "system call" whose effects are selectively recorded.
		th.SkipRange(5000, func(m *memmodel.Memory) {
			m.Store(y, 42)
		})
		if got := th.Read(y, s); got != 42 {
			t.Errorf("y = %d after skip range, want 42", got)
		}
		_ = x
	})
	res := Run(p, Config{Seed: 1})
	var skip *trace.Event
	for i := range res.Trace.Events {
		if res.Trace.Events[i].Kind == trace.KSkip {
			skip = &res.Trace.Events[i]
		}
	}
	if skip == nil {
		t.Fatal("no KSkip event recorded")
	}
	if delta := res.Trace.Ext(skip).Delta; delta[y] != 42 {
		t.Fatalf("skip delta = %v, want y=42", delta)
	}
	if skip.Cost != 5000 {
		t.Fatalf("skip cost = %v, want 5000", skip.Cost)
	}
}

// TestSelectiveRecordingSavesTraceFootprint compares a workload that
// selectively records a heavy library call (KSkip delta) against the same
// workload recorded completely: the selective trace must be much smaller
// while replaying to the same final state (Sec. 5.1).
func TestSelectiveRecordingSavesTraceFootprint(t *testing.T) {
	build := func(selective bool) *Result {
		p := NewProgram("sel")
		l := p.NewLock("L")
		buf := p.Mem.AllocN("iobuf", 8, 0)
		s := site(p, 1)
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *Thread) {
				for j := 0; j < 10; j++ {
					// A "library call" that touches many cells.
					if selective {
						j := j
						th.SkipRange(2000, func(m *memmodel.Memory) {
							for k, a := range buf {
								m.Store(a, int64(j*10+k))
							}
						})
					} else {
						for k, a := range buf {
							th.Write(a, int64(j*10+k), s)
							th.Compute(2000/vtime.Duration(len(buf)) - 15)
						}
					}
					th.Lock(l, s)
					th.Read(buf[0], s)
					th.Unlock(l, s)
				}
			})
		}
		return Run(p, Config{Seed: 4})
	}
	sel := build(true)
	full := build(false)
	if len(sel.Trace.Events) >= len(full.Trace.Events) {
		t.Fatalf("selective trace has %d events, complete has %d; expected savings",
			len(sel.Trace.Events), len(full.Trace.Events))
	}
	if skips := sel.Trace.CountKind(trace.KSkip); skips != 20 {
		t.Fatalf("skips = %d, want 20", skips)
	}
	// Both record the same final buffer contents.
	if !sel.Trace.FinalMem.Equal(full.Trace.FinalMem) {
		t.Fatal("selective and complete recordings disagree on final state")
	}
	// And the selective trace replays to that state too.
	res, err := replay.Run(sel.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalMem.Equal(sel.Trace.FinalMem) {
		t.Fatal("selective replay lost the skipped state")
	}
}

func TestThreadStartEndEvents(t *testing.T) {
	p := NewProgram("t")
	p.AddThread(func(th *Thread) { th.Compute(10) })
	p.AddThread(func(th *Thread) { th.Compute(20) })
	res := Run(p, Config{Seed: 1})
	if got := res.Trace.CountKind(trace.KThreadStart); got != 2 {
		t.Fatalf("thread starts = %d, want 2", got)
	}
	if got := res.Trace.CountKind(trace.KThreadEnd); got != 2 {
		t.Fatalf("thread ends = %d, want 2", got)
	}
}

func TestFIFOLockFairnessByArrival(t *testing.T) {
	// T1 arrives at the lock before T2; T1 must win it first.
	p := NewProgram("t")
	l := p.NewLock("L")
	order := p.Mem.Alloc("order", 0)
	s := site(p, 1)
	p.AddThread(func(th *Thread) { // holder
		th.Lock(l, s)
		th.Compute(10000)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) { // early waiter
		th.Compute(100)
		th.Lock(l, s)
		v := th.Read(order, s)
		th.Write(order, v*10+1, s)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) { // late waiter
		th.Compute(5000)
		th.Lock(l, s)
		v := th.Read(order, s)
		th.Write(order, v*10+2, s)
		th.Unlock(l, s)
	})
	Run(p, Config{Seed: 1})
	if got := p.Mem.Load(order); got != 12 {
		t.Fatalf("acquisition order encoded %d, want 12 (arrival FIFO)", got)
	}
}
