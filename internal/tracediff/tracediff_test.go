package tracediff

import (
	"strings"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

func TestProfileBasics(t *testing.T) {
	p := sim.NewProgram("prof")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	sa := p.Site("a.c", 10, "hot")
	sb := p.Site("b.c", 20, "cold")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 5; j++ {
				th.Lock(l, sa)
				th.Add(x, 1, sa)
				th.Compute(500)
				th.Unlock(l, sa)
				th.Compute(50)
			}
			th.Lock(l, sb)
			th.Read(x, sb)
			th.Unlock(l, sb)
		})
	}
	rec := sim.Run(p, sim.Config{Seed: 2})
	prof, err := Profile(rec.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 2 {
		t.Fatalf("regions = %d, want 2", len(prof))
	}
	hot := prof["a.c:10"]
	cold := prof["b.c:20"]
	if hot == nil || cold == nil {
		t.Fatalf("regions missing: %v", prof)
	}
	if hot.CSs != 10 || cold.CSs != 2 {
		t.Fatalf("CS counts = %d/%d, want 10/2", hot.CSs, cold.CSs)
	}
	if hot.Held <= cold.Held {
		t.Fatal("hot region must hold the lock longer")
	}
	if hot.Waited == 0 {
		t.Fatal("contended region shows no waiting")
	}
}

func TestCompareBugVsFix(t *testing.T) {
	cfg := workload.Config{Threads: 4, Scale: 0.05, Seed: 3}
	buggy := sim.Run(workload.MustGet("openldap").Build(cfg), sim.Config{Seed: 3})
	fixed := sim.Run(workload.BuildOpenldapFixed(cfg), sim.Config{Seed: 3})
	tbl, err := Compare("buggy", buggy.Trace, "fixed", fixed.Trace)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if !strings.Contains(out, "mp/mp_fopen.c") {
		t.Fatalf("diff missing the spin-wait region:\n%s", out)
	}
	if !strings.Contains(out, "total wait") {
		t.Fatalf("diff missing totals note:\n%s", out)
	}
	// The fixed build has no mp_fopen polling CSs, so its row must show a
	// →0 count for that region.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "mp/mp_fopen.c:717") || strings.Contains(line, "mp/mp_fopen.c:713") {
			if !strings.Contains(line, "→0") {
				t.Fatalf("spin region not eliminated in fixed build: %s", line)
			}
		}
	}
}

// TestCompareRejectsMalformedTraces: a decodable trace naming a thread,
// constraint target or lockset source it does not have is an error on
// either side of a diff, not an index panic in the replay under it.
func TestCompareRejectsMalformedTraces(t *testing.T) {
	good := sim.Run(workload.MustGet("pbzip2").Build(workload.Config{Threads: 2, Scale: 0.1, Seed: 3}), sim.Config{Seed: 3}).Trace

	thread := trace.New("thread", 1)
	thread.Append(trace.Event{Thread: 3, Kind: trace.KCompute, Cost: 10})

	constraint := trace.New("constraint", 1)
	constraint.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 10})
	constraint.Constraints = []trace.Constraint{{After: 99, Before: 0}}

	source := trace.New("source", 1)
	aux := []trace.LockID{trace.AuxLockBase + 1}
	source.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq}, trace.EventExt{Locks: aux, Sources: []int32{77}})
	source.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel}, trace.EventExt{Locks: aux})

	for _, bad := range []*trace.Trace{thread, constraint, source} {
		if _, err := Compare("bad", bad, "good", good); err == nil {
			t.Errorf("%s: malformed left side compared", bad.App)
		}
		if _, err := Compare("good", good, "bad", bad); err == nil {
			t.Errorf("%s: malformed right side compared", bad.App)
		}
	}
	if _, err := Compare("good", good, "good", good); err != nil {
		t.Fatal(err)
	}
}
