package sim

import (
	"runtime"
	"strings"
	"testing"

	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// TestLockFreeAtSemantics pins the fix for a subtle simulator bug: a
// thread whose lock request is processed after the holder's release event
// (but whose own clock predates it) must still wait until the release
// time — the lock cannot be held by two threads at overlapping virtual
// times.
func TestLockFreeAtSemantics(t *testing.T) {
	p := NewProgram("freeat")
	l := p.NewLock("L")
	s := p.Site("f.c", 1, "f")
	// T0 holds L for [~0, 1060]; T1 requests at 1000 — after T0's release
	// is processed in event order but before it in virtual time? No: T1
	// requests at 1000 < release 1060, so it must wait.
	p.AddThread(func(th *Thread) {
		th.Lock(l, s)
		th.Compute(1000)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) {
		th.Compute(1000)
		th.Lock(l, s)
		th.Unlock(l, s)
	})
	res := Run(p, Config{Seed: 1})
	// Verify no two critical sections of L overlap in recorded time.
	css := res.Trace.ExtractCS()
	for i := 0; i < len(css); i++ {
		for j := i + 1; j < len(css); j++ {
			a, b := css[i], css[j]
			if a.Lock != b.Lock {
				continue
			}
			// Span of a CS: acquisition completion .. release completion.
			if a.Start < b.End && b.Start < a.End {
				t.Fatalf("critical sections overlap: %v [%v,%v] and %v [%v,%v]",
					a, a.Start, a.End, b, b.Start, b.End)
			}
		}
	}
}

// TestCSNeverOverlapQuick: the invariant above over randomized programs.
func TestCSNeverOverlapQuick(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		p := NewProgram("q")
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "f")
		for i := 0; i < 3; i++ {
			p.AddThread(func(th *Thread) {
				for j := 0; j < 8; j++ {
					th.Compute(vtime.Duration(10 + th.Intn(500)))
					th.Lock(l, s)
					th.Add(x, 1, s)
					th.Compute(vtime.Duration(10 + th.Intn(200)))
					th.Unlock(l, s)
				}
			})
		}
		res := Run(p, Config{Seed: seed})
		css := res.Trace.ExtractCS()
		for i := 0; i < len(css); i++ {
			for j := i + 1; j < len(css); j++ {
				a, b := css[i], css[j]
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("seed %d: overlapping CSs %v and %v", seed, a, b)
				}
			}
		}
	}
}

func TestTryLockSeesInFlightHold(t *testing.T) {
	// T1's trylock at t=500 happens while T0 holds [0, 1060]: must fail
	// even though the sim may process T0's release first.
	p := NewProgram("tryfree")
	l := p.NewLock("L")
	got := p.Mem.Alloc("got", -1)
	s := p.Site("f.c", 1, "f")
	p.AddThread(func(th *Thread) {
		th.Lock(l, s)
		th.Compute(1000)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) {
		th.Compute(500)
		if th.TryLock(l, s) {
			th.Unlock(l, s)
			th.Write(got, 1, s)
		} else {
			th.Write(got, 0, s)
		}
	})
	Run(p, Config{Seed: 1})
	if p.Mem.Load(got) != 0 {
		t.Fatal("trylock succeeded while the lock was virtually held")
	}
}

func TestBroadcastWakesAllWaiters(t *testing.T) {
	p := NewProgram("bcast")
	l := p.NewLock("L")
	c := p.NewCond("C")
	go_ := p.Mem.Alloc("go", 0)
	woke := p.Mem.Alloc("woke", 0)
	s := p.Site("f.c", 1, "f")
	for i := 0; i < 4; i++ {
		p.AddThread(func(th *Thread) {
			th.Lock(l, s)
			for th.Read(go_, s) == 0 {
				th.Wait(c, l, s)
			}
			th.Add(woke, 1, s)
			th.Unlock(l, s)
		})
	}
	p.AddThread(func(th *Thread) {
		th.Compute(1000)
		th.Lock(l, s)
		th.Write(go_, 1, s)
		th.Unlock(l, s)
		th.Broadcast(c, s)
	})
	Run(p, Config{Seed: 1})
	if p.Mem.Load(woke) != 4 {
		t.Fatalf("woke = %d, want all 4 waiters", p.Mem.Load(woke))
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlock did not panic")
		}
		if !strings.Contains(r.(string), "deadlock") {
			t.Fatalf("panic = %v", r)
		}
	}()
	Run(deadlockProgram(new(int)), Config{Seed: 1})
}

// deadlockProgram is the classic two-lock inversion; each body counts
// itself into unwound from a deferred call.
func deadlockProgram(unwound *int) *Program {
	p := NewProgram("dead")
	l1, l2 := p.NewLock("L1"), p.NewLock("L2")
	s := p.Site("f.c", 1, "f")
	count := func() { *unwound++ }
	p.AddThread(func(th *Thread) {
		defer count()
		th.Lock(l1, s)
		th.Compute(100)
		th.Lock(l2, s)
		th.Unlock(l2, s)
		th.Unlock(l1, s)
	})
	p.AddThread(func(th *Thread) {
		defer count()
		th.Lock(l2, s)
		th.Compute(100)
		th.Lock(l1, s)
		th.Unlock(l1, s)
		th.Unlock(l2, s)
	})
	return p
}

// TestDeadlockLeavesNoGoroutines: Run stops every suspended body on its
// way out, so a recovered deadlock — a failed job in perfplayd — leaves
// nothing parked behind it, and the bodies' deferred calls have run.
func TestDeadlockLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	for i := 0; i < 20; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("deadlock did not panic")
				}
			}()
			Run(deadlockProgram(&unwound), Config{Seed: 1})
		}()
	}
	if unwound != 40 {
		t.Errorf("%d bodies unwound, want 40", unwound)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before 20 recovered deadlocks, %d after", before, after)
	}
}

// TestBodyPanicReachesCaller: a panic inside a thread body comes out of
// Run on the calling goroutine, where a recover can turn it into a failed
// job, and the other threads are unwound.
func TestBodyPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewProgram("boom")
	l := p.NewLock("L")
	s := p.Site("f.c", 1, "f")
	unwound := false
	p.AddThread(func(th *Thread) {
		defer func() { unwound = true }()
		th.Lock(l, s)
		th.Compute(1000)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) {
		th.Compute(100)
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the body's panic", r)
			}
		}()
		Run(p, Config{Seed: 1})
	}()
	if !unwound {
		t.Error("the other thread's body was not unwound")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after", before, after)
	}
}

func TestSpinWaitAccountedOnLateGrant(t *testing.T) {
	// Same freeAt scenario on a spin lock: the wait burns CPU.
	p := NewProgram("spinfree")
	l := p.NewSpinLock("S")
	s := p.Site("f.c", 1, "f")
	p.AddThread(func(th *Thread) {
		th.Lock(l, s)
		th.Compute(2000)
		th.Unlock(l, s)
	})
	p.AddThread(func(th *Thread) {
		th.Compute(100)
		th.Lock(l, s)
		th.Unlock(l, s)
	})
	res := Run(p, Config{Seed: 1})
	if res.SpinWaste < 1800 {
		t.Fatalf("spin waste = %v, want ~1900 (the full wait burns CPU)", res.SpinWaste)
	}
}

func TestBarrierGenerationsRecorded(t *testing.T) {
	p := NewProgram("gen")
	b := p.NewBarrier("B", 2)
	s := p.Site("f.c", 1, "f")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *Thread) {
			for j := 0; j < 3; j++ {
				th.Compute(vtime.Duration(100 * (th.Intn(4) + 1)))
				th.Barrier(b, s)
			}
		})
	}
	res := Run(p, Config{Seed: 6})
	gens := map[int64]int{}
	for i := range res.Trace.Events {
		e := &res.Trace.Events[i]
		if e.Kind == trace.KBarrier {
			gens[e.Value]++
		}
	}
	if len(gens) != 3 {
		t.Fatalf("generations = %v, want 3 episodes", gens)
	}
	for g, n := range gens {
		if n != 2 {
			t.Fatalf("episode %d has %d participants, want 2", g, n)
		}
	}
}

func TestRandHelpersDeterministic(t *testing.T) {
	run := func() []int {
		p := NewProgram("rng")
		out := p.Mem.AllocN("o", 4, 0)
		s := p.Site("f.c", 1, "f")
		p.AddThread(func(th *Thread) {
			for i := 0; i < 4; i++ {
				th.Write(out[i], int64(th.Intn(1000)), s)
			}
			_ = th.Float64()
		})
		Run(p, Config{Seed: 77})
		var vals []int
		for _, a := range out {
			vals = append(vals, int(p.Mem.Load(a)))
		}
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("thread RNG not deterministic: %v vs %v", a, b)
		}
	}
}
