package workload_test

import (
	"testing"

	"perfplay/internal/core"
	"perfplay/internal/pipeline"
	"perfplay/internal/sim"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// analyzeCase runs the pipeline on an appendix case.
func analyzeCase(t *testing.T, n, threads int) *core.Analysis {
	t.Helper()
	p, err := workload.BuildCase(n, workload.Config{Threads: threads, Scale: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(pipeline.Request{Program: p, Seed: 17})
	if err != nil {
		t.Fatalf("case %d: %v", n, err)
	}
	return res.Analysis
}

func TestCaseUnknown(t *testing.T) {
	if _, err := workload.BuildCase(0, workload.Config{}); err == nil {
		t.Fatal("case 0 must error")
	}
	if _, err := workload.BuildCase(11, workload.Config{}); err == nil {
		t.Fatal("case 11 must error")
	}
}

func TestCase1CondWaitNullLocks(t *testing.T) {
	a := analyzeCase(t, 1, 3)
	// The re-acquired critical sections re-read the predicate, so the
	// wakeup sections pair as read-read/null-lock ULCPs, never pure TLCPs
	// against each other.
	if a.Report.NumULCPs() == 0 {
		t.Fatalf("case 1 found no ULCPs: %v", a.Report.Counts)
	}
}

func TestCase2ReadOnlyTraversal(t *testing.T) {
	a := analyzeCase(t, 2, 2)
	if a.Report.Counts[ulcp.ReadRead] == 0 {
		t.Fatalf("case 2: no read-read ULCPs: %v", a.Report.Counts)
	}
	if a.Report.Counts[ulcp.TLCP] != 0 {
		t.Fatalf("case 2: read-only traversal produced TLCPs: %v", a.Report.Counts)
	}
	if a.Debug.Tuft >= a.Debug.Tut {
		t.Fatal("case 2: traversals should parallelize")
	}
}

func TestCase3DisjointFields(t *testing.T) {
	a := analyzeCase(t, 3, 2)
	if a.Report.Counts[ulcp.DisjointWrite] == 0 {
		t.Fatalf("case 3: no disjoint-write ULCPs: %v", a.Report.Counts)
	}
}

func TestCase4MixedProtection(t *testing.T) {
	a := analyzeCase(t, 4, 3)
	// The close path writes mysys_var while the processlist path reads
	// query: disjoint addresses under one lock.
	if a.Report.Counts[ulcp.DisjointWrite] == 0 && a.Report.Counts[ulcp.ReadRead] == 0 {
		t.Fatalf("case 4: no ULCPs identified: %v", a.Report.Counts)
	}
}

func TestCase5DisjointMembers(t *testing.T) {
	a := analyzeCase(t, 5, 2)
	if a.Report.Counts[ulcp.DisjointWrite] == 0 {
		t.Fatalf("case 5: no disjoint-write ULCPs: %v", a.Report.Counts)
	}
	if a.Debug.Tuft >= a.Debug.Tut {
		t.Fatal("case 5: disjoint member stores should parallelize")
	}
}

func TestCase6CoarseLock(t *testing.T) {
	a := analyzeCase(t, 6, 3)
	// Per-partition reads and writes under one coarse lock: DW ULCPs and
	// a large recovery.
	if a.Report.Counts[ulcp.DisjointWrite] == 0 {
		t.Fatalf("case 6: no disjoint-write ULCPs: %v", a.Report.Counts)
	}
	if a.Debug.NormalizedDegradation() < 0.10 {
		t.Fatalf("case 6: degradation = %.2f%%, want substantial (coarse lock)",
			a.Debug.NormalizedDegradation()*100)
	}
}

func TestCase7SpinWaste(t *testing.T) {
	p, err := workload.BuildCase(7, workload.Config{Threads: 4, Scale: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(p, sim.Config{Seed: 17})
	// Failed trylocks burn CPU in the my_sleep(0) loop.
	busy := res.CPUTotal()
	if busy <= res.Total {
		t.Fatalf("case 7: no spinning visible (cpu %v vs span %v)", busy, res.Total)
	}
}

func TestCase8HashLookupSerialization(t *testing.T) {
	a := analyzeCase(t, 8, 2)
	if a.Report.Counts[ulcp.ReadRead] == 0 {
		t.Fatalf("case 8: no read-read ULCPs: %v", a.Report.Counts)
	}
	// Four call sites share fil_system->mutex: fusion must produce
	// several distinct groups.
	if len(a.Debug.Groups) < 4 {
		t.Fatalf("case 8: groups = %d, want >= 4 (four lookup sites)", len(a.Debug.Groups))
	}
}

func TestCase9TimeoutInflation(t *testing.T) {
	// The effective wait per thread grows with the number of threads
	// because the re-acquisitions serialize.
	single, err := workload.BuildCase(9, workload.Config{Threads: 1, Scale: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	many, err := workload.BuildCase(9, workload.Config{Threads: 6, Scale: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	r1 := sim.Run(single, sim.Config{Seed: 17})
	rn := sim.Run(many, sim.Config{Seed: 17})
	if rn.Total <= r1.Total {
		t.Fatalf("case 9: timeout did not inflate with threads (%v vs %v)", rn.Total, r1.Total)
	}
}

func TestCase10GlobalReadLock(t *testing.T) {
	a := analyzeCase(t, 10, 4)
	// The must_wait checks are read/commutative: classified benign or
	// read-read, not real contention.
	if got := a.Report.NumULCPs(); got == 0 {
		t.Fatalf("case 10: no ULCPs: %v", a.Report.Counts)
	}
}

func TestAllCasesValidateAndAnalyze(t *testing.T) {
	for n := 1; n <= 10; n++ {
		n := n
		t.Run(caseName(n), func(t *testing.T) {
			t.Parallel()
			p, err := workload.BuildCase(n, workload.Config{Threads: 2, Scale: 1, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			res := sim.Run(p, sim.Config{Seed: 5})
			if err := res.Trace.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if _, err := pipeline.Run(pipeline.Request{Trace: res.Trace, DetectRaces: true}); err != nil {
				t.Fatalf("pipeline failed: %v", err)
			}
		})
	}
}

func caseName(n int) string {
	return map[int]string{
		1: "condwait", 2: "lockprint", 3: "slotfields", 4: "thddata",
		5: "setmembers", 6: "coarse", 7: "qcspin", 8: "hashlookup",
		9: "trylock", 10: "globalreadlock",
	}[n]
}
