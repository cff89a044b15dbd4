package core_test

import (
	"strings"
	"testing"

	"perfplay/internal/core"
	"perfplay/internal/pipeline"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
)

// analyze runs the request through pipeline.Run — the bundle's only
// producer — and returns the artifacts these tests inspect.
func analyze(t *testing.T, req pipeline.Request) *core.Analysis {
	t.Helper()
	res, err := pipeline.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Analysis
}

// readHeavy builds a program whose threads repeatedly read shared data
// under one lock — pure read-read ULCPs whose serialization the
// transformation should eliminate.
func readHeavy(threads, iters int) *sim.Program {
	p := sim.NewProgram("read-heavy")
	l := p.NewLock("mu")
	x := p.Mem.Alloc("shared", 42)
	sLock := p.Site("app.c", 100, "reader")
	sRead := p.Site("app.c", 101, "reader")
	for i := 0; i < threads; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < iters; j++ {
				th.Lock(l, sLock)
				th.Read(x, sRead)
				th.Compute(800) // long read-side critical section
				th.Unlock(l, sLock)
				th.Compute(200)
			}
		})
	}
	return p
}

// writeConflict builds a program with genuine contention: threads write
// distinct values to the same cell, so nothing should be parallelized.
func writeConflict(threads, iters int) *sim.Program {
	p := sim.NewProgram("write-conflict")
	l := p.NewLock("mu")
	x := p.Mem.Alloc("shared", 0)
	s := p.Site("app.c", 200, "writer")
	for i := 0; i < threads; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < iters; j++ {
				th.Lock(l, s)
				th.Read(x, s) // observe, then overwrite: order-sensitive
				th.Write(x, int64(i*1000+j), s)
				th.Compute(500)
				th.Unlock(l, s)
				th.Compute(300)
			}
		})
	}
	return p
}

func TestPipelineFindsAndRemovesReadReadULCPs(t *testing.T) {
	a := analyze(t, pipeline.Request{Program: readHeavy(4, 10), Seed: 5})
	if a.Report.Counts[ulcp.ReadRead] == 0 {
		t.Fatal("no read-read ULCPs found in a read-heavy workload")
	}
	if a.Report.Counts[ulcp.TLCP] != 0 {
		t.Fatalf("found %d TLCPs in a read-only workload", a.Report.Counts[ulcp.TLCP])
	}
	if a.Debug.Tuft >= a.Debug.Tut {
		t.Fatalf("ULCP-free replay (%v) not faster than original (%v)", a.Debug.Tuft, a.Debug.Tut)
	}
	// Read-only critical sections: removal must not change semantics.
	if !a.FreeReplay.FinalMem.Equal(a.OrigReplay.FinalMem) {
		t.Fatal("transformed replay changed final state of a read-only workload")
	}
	if len(a.Debug.Groups) == 0 {
		t.Fatal("no fused groups produced")
	}
	if a.Debug.Groups[0].P <= 0 {
		t.Fatal("top group has zero optimization share")
	}
}

func TestPipelineKeepsTrueContention(t *testing.T) {
	a := analyze(t, pipeline.Request{Program: writeConflict(3, 8), Seed: 5, DetectRaces: true})
	if a.Report.Counts[ulcp.TLCP] == 0 {
		t.Fatal("no TLCPs found in a write-conflict workload")
	}
	// Same-value ordering: transformed replay must preserve per-lock
	// partial order of causal nodes (RULE 2), so the final state matches.
	if !a.FreeReplay.FinalMem.Equal(a.OrigReplay.FinalMem) {
		t.Fatal("RULE 2 violated: transformed replay changed the final write order")
	}
	// Genuine contention is preserved, so speedup should be small
	// relative to the read-heavy case (only lock-op overhead removed for
	// standalone CSs; here every CS is causal, so none removed).
	deg := a.Debug.NormalizedDegradation()
	if deg > 0.10 {
		t.Fatalf("write-conflict workload reported %.1f%% degradation; true contention must not be 'optimized'", deg*100)
	}
	if len(a.Races) != 0 {
		t.Fatalf("unexpected races on a fully serialized workload: %v", a.Races)
	}
}

func TestPipelineNullLocks(t *testing.T) {
	// Fig. 3's generic null-lock model: threads take a lock, test a
	// thread-local flag that is false, and leave without shared access.
	p := sim.NewProgram("null-lock")
	l := p.NewLock("L")
	s := p.Site("fig3.c", 1, "nl")
	for i := 0; i < 3; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 5; j++ {
				th.Lock(l, s)
				th.Compute(100) // branch test on a local, no shared access
				th.Unlock(l, s)
				th.Compute(150)
			}
		})
	}
	a := analyze(t, pipeline.Request{Program: p, Seed: 2})
	if a.Report.Counts[ulcp.NullLock] == 0 {
		t.Fatal("no null-locks identified")
	}
	if a.Transformed.RemovedSync == 0 {
		t.Fatal("null-lock critical sections should have their sync removed")
	}
	if a.Debug.Tuft >= a.Debug.Tut {
		t.Fatalf("null-lock removal should speed up replay: %v vs %v", a.Debug.Tuft, a.Debug.Tut)
	}
}

func TestSummaryRendering(t *testing.T) {
	a := analyze(t, pipeline.Request{Program: readHeavy(2, 4), Seed: 1})
	s := a.Summary(3)
	for _, want := range []string{"PerfPlay analysis", "read-heavy", "ULCPs:", "recommendations"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// A Trace request over a recording replays to the total the recording
// run itself measured: the trace and program entry points agree.
func TestAnalyzeTraceMatchesAnalyze(t *testing.T) {
	p := readHeavy(3, 6)
	rec := sim.Run(p, sim.Config{Seed: 9})
	a := analyze(t, pipeline.Request{Trace: rec.Trace})
	if a.Debug.Tut != rec.Total {
		t.Fatalf("ELSC original replay %v != recorded %v", a.Debug.Tut, rec.Total)
	}
}

func TestDisjointWritePipeline(t *testing.T) {
	// Disjoint-write pattern: same lock guards updates to different cells
	// (the pointer-alias idiom of Sec. 2.1).
	p := sim.NewProgram("disjoint-write")
	l := p.NewLock("mu")
	cells := p.Mem.AllocN("obj", 4, 0)
	s := p.Site("dw.c", 10, "update")
	for i := 0; i < 4; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 6; j++ {
				th.Lock(l, s)
				th.Write(cells[i], int64(j), s)
				th.Compute(600)
				th.Unlock(l, s)
				th.Compute(vtime.Duration(100 + 50*i))
			}
		})
	}
	a := analyze(t, pipeline.Request{Program: p, Seed: 3})
	if a.Report.Counts[ulcp.DisjointWrite] == 0 {
		t.Fatal("no disjoint-write ULCPs identified")
	}
	if a.Debug.Tuft >= a.Debug.Tut {
		t.Fatalf("disjoint writes should parallelize: %v vs %v", a.Debug.Tuft, a.Debug.Tut)
	}
	if !a.FreeReplay.FinalMem.Equal(a.OrigReplay.FinalMem) {
		t.Fatal("disjoint-write transformation changed final state")
	}
}

func TestBenignCommutativePipeline(t *testing.T) {
	// Threads increment a shared counter: conflicting but commutative, so
	// the reversed replay should classify pairs as benign.
	p := sim.NewProgram("benign-add")
	l := p.NewLock("mu")
	x := p.Mem.Alloc("ctr", 0)
	s := p.Site("ba.c", 5, "inc")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 4; j++ {
				th.Lock(l, s)
				th.Add(x, 1, s)
				th.Compute(400)
				th.Unlock(l, s)
				th.Compute(250)
			}
		})
	}
	a := analyze(t, pipeline.Request{Program: p, Seed: 4})
	if a.Report.Counts[ulcp.Benign] == 0 {
		t.Fatalf("no benign ULCPs found; counts = %v", a.Report.Counts)
	}
	if !a.FreeReplay.FinalMem.Equal(a.OrigReplay.FinalMem) {
		t.Fatal("commutative adds must reach the same total either way")
	}
}

func TestVerifyTheorem1Integration(t *testing.T) {
	a := analyze(t, pipeline.Request{Program: readHeavy(3, 6), Seed: 5, VerifyTheorem1: true})
	if a.Theorem1 == nil {
		t.Fatal("Theorem1 report missing")
	}
	if !a.Theorem1.Ok() {
		t.Fatalf("Theorem 1 violated:\n%s", a.Theorem1)
	}
	if a.Theorem1.Speedup >= 1 {
		t.Fatalf("speedup = %v, want < 1", a.Theorem1.Speedup)
	}
}

// TestAnalyzeWithDLSAndLocksetCost: the dynamic locking strategy and the
// lockset cost model are replay options over an analysis's plan, as
// Table 3 runs them; the analysis itself replays on default options.
func TestAnalyzeWithDLSAndLocksetCost(t *testing.T) {
	dls := func(a *core.Analysis) *replay.Result {
		t.Helper()
		res, err := replay.Run(a.Recorded.Trace, replay.Options{
			Sched: replay.ELSCS, DLS: true, LocksetCost: 8, Plan: a.Transformed.Plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := analyze(t, pipeline.Request{Program: readHeavy(2, 6), Seed: 5})
	// Read-only workloads have no causal edges, so no locksets and no
	// overhead; the options must still be accepted.
	if r := dls(a); r.LocksetOverhead != 0 {
		t.Fatalf("lockset overhead = %v on a lockset-free trace", r.LocksetOverhead)
	}
	b := analyze(t, pipeline.Request{Program: writeConflict(3, 6), Seed: 5})
	if b.Transformed.LocksetNodes == 0 {
		t.Fatal("write-conflict fixture has no lockset node")
	}
	if r := dls(b); r.LocksetAcqs == 0 || r.LocksetOverhead == 0 {
		t.Fatalf("lockset acquisitions %d, overhead %v: DLS and the cost model were not applied", r.LocksetAcqs, r.LocksetOverhead)
	}
	if b.FreeReplay.LocksetOverhead != 0 {
		t.Fatalf("default-option replay charged %v of lockset overhead", b.FreeReplay.LocksetOverhead)
	}
}
