package multi

import (
	"strings"
	"testing"

	"perfplay/internal/core"
	"perfplay/internal/pipeline"
	"perfplay/internal/sim"
	"perfplay/internal/vtime"
)

// build constructs a two-region workload; the second region only contends
// when wide is set, modelling an input-dependent opportunity.
func build(seed int64, wide bool) *core.Analysis {
	p := sim.NewProgram("m")
	l1 := p.NewLock("L1")
	l2 := p.NewLock("L2")
	x := p.Mem.Alloc("x", 1)
	y := p.Mem.Alloc("y", 2)
	sa := p.Site("a.c", 10, "always")
	sb := p.Site("b.c", 50, "sometimes")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 8; j++ {
				th.Lock(l1, sa)
				th.Read(x, sa)
				th.Compute(500)
				th.Unlock(l1, sa)
				if wide {
					th.Lock(l2, sb)
					th.Read(y, sb)
					th.Compute(400)
					th.Unlock(l2, sb)
				}
				th.Compute(vtime.Duration(100 + 30*j))
			}
		})
	}
	res, err := pipeline.Run(pipeline.Request{Program: p, Seed: seed})
	if err != nil {
		panic(err)
	}
	return res.Analysis
}

func TestMergeConsistentAcrossSeeds(t *testing.T) {
	runs := []*core.Analysis{build(1, true), build(2, true), build(3, true)}
	agg := Merge(runs)
	if agg.Runs != 3 {
		t.Fatalf("runs = %d", agg.Runs)
	}
	if len(agg.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(agg.Groups))
	}
	for _, g := range agg.Groups {
		if !g.Consistent(3) {
			t.Errorf("group %v inconsistent despite identical workloads", g)
		}
		if g.MinP > g.MeanP || g.MeanP > g.MaxP {
			t.Errorf("P ordering broken: %v", g)
		}
	}
	rec := agg.Recommend(1)
	if len(rec) != 1 {
		t.Fatal("no consistent recommendation")
	}
	if rec[0].CR1.File != "a.c" {
		t.Errorf("top recommendation = %v, want the hot a.c region", rec[0].CR1)
	}
}

func TestMergeFlagsInputSensitivity(t *testing.T) {
	// The b.c region only exists in the wide runs: it must not be
	// reported as a consistent opportunity.
	runs := []*core.Analysis{build(1, true), build(2, false)}
	agg := Merge(runs)
	var bGroup *GroupStat
	for _, g := range agg.Groups {
		if g.CR1.File == "b.c" || g.CR2.File == "b.c" {
			bGroup = g
		}
	}
	if bGroup == nil {
		t.Fatal("b.c group missing entirely")
	}
	if bGroup.Consistent(agg.Runs) {
		t.Fatal("input-sensitive group reported as consistent")
	}
	for _, g := range agg.Recommend(10) {
		if g == bGroup {
			t.Fatal("Recommend returned an inconsistent group")
		}
	}
}

func TestSummaryRendering(t *testing.T) {
	agg := Merge([]*core.Analysis{build(1, true), build(2, true)})
	s := agg.Summary(5)
	for _, want := range []string{"aggregated over 2 traces", "a.c", "*"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	agg := Merge(nil)
	if agg.Runs != 0 || len(agg.Groups) != 0 {
		t.Fatal("empty merge not empty")
	}
	if got := agg.Recommend(3); len(got) != 0 {
		t.Fatal("recommendations from nothing")
	}
}
