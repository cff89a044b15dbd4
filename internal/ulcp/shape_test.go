package ulcp

import (
	"fmt"
	"slices"
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// shapeKey is the allocating reference for a section's shape: its region
// as text and its access list, address and touch per entry.
func shapeKey(c *trace.CritSec) string {
	k := c.Region.String() + "|"
	for _, a := range c.Acc {
		k += fmt.Sprintf("%d:%d;", a.Addr, a.Touch)
	}
	return k
}

// TestShapesKeepApart: two sections share a shape only when their regions
// and access lists are equal. Equal regions over different access lists,
// equal access lists under different regions, and one address written
// by the same ops in another order are never one shape; an equal copy of
// a section always is, including after the table has grown.
func TestShapesKeepApart(t *testing.T) {
	r := trace.Region{File: "f.c", StartLine: 1, EndLine: 4}
	in := func(r trace.Region, c *trace.CritSec) *trace.CritSec {
		c.Region = r
		return c
	}
	written := func(ops ...trace.WriteOp) *trace.CritSec {
		c := cs(nil, []memmodel.Addr{1})
		c.Acc[0].Touch = 0
		for _, op := range ops {
			c.Acc[0].Touch = c.Acc[0].Touch.WithOp(op)
		}
		return in(r, c)
	}
	one := []memmodel.Addr{1}
	for _, c := range []struct {
		what string
		a, b *trace.CritSec
	}{
		{"one region, other addresses", in(r, cs(nil, one)), in(r, cs(nil, []memmodel.Addr{2}))},
		{"one region, read against written", in(r, cs(one, nil)), in(r, cs(nil, one))},
		{"one region, one address more", in(r, cs(nil, one)), in(r, cs(nil, []memmodel.Addr{1, 2}))},
		{"one access list, other lines", in(r, cs(nil, one)), in(trace.Region{File: "f.c", StartLine: 1, EndLine: 5}, cs(nil, one))},
		{"one access list, other file", in(r, cs(nil, one)), in(trace.Region{File: "g.c", StartLine: 1, EndLine: 4}, cs(nil, one))},
		{"one access list, no region", in(r, cs(nil, one)), cs(nil, one)},
		{"write ops in another order", written(trace.WAdd, trace.WAnd), written(trace.WAnd, trace.WAdd)},
	} {
		// The hashes of the two may differ, so the comparison that settles
		// a collision is checked on its own as well.
		if sameShape(c.a, c.b) {
			t.Errorf("%s: compared as one shape", c.what)
		}
		var s shapeSet
		x, _ := s.intern(c.a)
		y, fresh := s.intern(c.b)
		if x == y || !fresh {
			t.Errorf("%s: shapes %d and %d (new %t), want two", c.what, x, y, fresh)
		}
		for want, sec := range []*trace.CritSec{c.a, c.b} {
			copied := &trace.CritSec{Region: sec.Region, Acc: slices.Clone(sec.Acc)}
			if !sameShape(sec, copied) || hashShape(sec) != hashShape(copied) {
				t.Errorf("%s: a copy of shape %d compares or hashes apart", c.what, want)
			}
			if z, fresh := s.intern(copied); z != int32(want) || fresh {
				t.Errorf("%s: a copy of shape %d interns as %d (new %t)", c.what, want, z, fresh)
			}
		}
	}

	var s shapeSet
	secs := make([]*trace.CritSec, 3000)
	for i := range secs {
		secs[i] = in(trace.Region{File: "f.c", StartLine: i % 7, EndLine: i % 7}, cs(nil, []memmodel.Addr{memmodel.Addr(i / 7)}))
		if x, fresh := s.intern(secs[i]); x != int32(i) || !fresh {
			t.Fatalf("section %d interns as %d (new %t), want a new shape %d", i, x, fresh, i)
		}
	}
	for i, sec := range secs {
		copied := &trace.CritSec{Region: sec.Region, Acc: slices.Clone(sec.Acc)}
		if x, fresh := s.intern(copied); x != int32(i) || fresh {
			t.Fatalf("after growth, a copy of section %d interns as %d (new %t)", i, x, fresh)
		}
	}
	if 2*len(s.list) > len(s.slots) {
		t.Fatalf("%d shapes in %d slots, want at most half full", len(s.list), len(s.slots))
	}
}

// TestPastTheShapeBound: a pass that meets more shapes than its category
// table holds classifies the pairs past it on every visit and in finish,
// and still reports pairsRef's rows. Every section writes an address of
// its own, so each is its own shape; every other one also adds to a
// shared counter, so pairs past the bound conflict and take the class
// memo's verdict. The build pass, the table-hit walk and the table-hit
// shard agree with pairsRef row for row.
func TestPastTheShapeBound(t *testing.T) {
	const perThread = 600
	p := sim.NewProgram("shapes")
	l := p.NewLock("L")
	shared := p.Mem.Alloc("shared", 0)
	sites := []trace.SiteID{p.Site("f.c", 1, "own"), p.Site("f.c", 9, "add")}
	for i := 0; i < 2; i++ {
		own := p.Mem.AllocN(fmt.Sprintf("own%d", i), perThread, 0)
		p.AddThread(func(th *sim.Thread) {
			for j, a := range own {
				s := sites[j%2]
				th.Lock(l, s)
				th.Write(a, int64(j), s)
				if j%2 == 1 {
					th.Add(shared, 1, s)
				}
				th.Unlock(l, s)
				th.Compute(10)
			}
		})
	}
	tr := sim.Run(p, sim.Config{Seed: 7}).Trace
	css := tr.ExtractCS()
	opts := Options{maxScanPerThread: 64}

	id := newIdentifier(tr, css, opts, nil)
	built := id.run()
	table := &VerdictTable{Verdicts: id.benignMemo, Replays: built.ReversedReplays}
	if len(id.shapes.list) != len(css) || len(css) <= maxShapes || id.dim != maxShapes {
		t.Fatalf("fixture: %d shapes over %d sections, table width %d; want one shape per section, past %d",
			len(id.shapes.list), len(css), id.dim, maxShapes)
	}
	shapeOf := func(c int32) int32 {
		s, _ := id.shapes.intern(css[c]) // interned by the pass: a lookup
		return s
	}
	past := 0
	for _, pr := range built.Pairs {
		if (pr.Cat == TLCP || pr.Cat == Benign) && (shapeOf(pr.C1) >= maxShapes || shapeOf(pr.C2) >= maxShapes) {
			past++
		}
	}
	if past == 0 || built.Counts[DisjointWrite] == 0 {
		t.Fatalf("fixture: %d conflicting pairs past the bound, counts %v", past, built.Counts)
	}

	ref := pairsRef(t, tr, css, opts, table)
	sameClassification(t, "build pass", built, ref)
	walk := IdentifyWithVerdicts(tr, css, opts, table)
	sameClassification(t, "table-hit walk", walk, ref)
	merged := mergeShards(tr, css, opts, table)
	sameClassification(t, "table-hit shards", merged, ref)
	if merged.ReversedReplays != 0 || walk.ReversedReplays != table.Replays {
		t.Fatalf("table-hit shards replayed %d times, the walk reports %d; want 0 and the table's %d",
			merged.ReversedReplays, walk.ReversedReplays, table.Replays)
	}
	t.Logf("%d sections, %d pairs (%d conflicting past the bound), %d replays", len(css), len(built.Pairs), past, built.ReversedReplays)
}

// TestClassifiesOncePerShapePair: a pass classifies each pair of section
// shapes once, however many pairs share it, whether it builds the
// verdict table or walks against it: classify's calls equal the shape
// pairs among the report's rows, counted by the allocating reference
// key.
func TestClassifiesOncePerShapePair(t *testing.T) {
	for _, c := range []struct {
		app     string
		threads int
		scale   float64
	}{{"mysql", 4, 0.1}, {"openldap", 4, 0.1}, {"fluidanimate", 4, 0.04}, {"mysql", 32, 0.05}} {
		p := workload.MustGet(c.app).Build(workload.Config{Threads: c.threads, Scale: c.scale, Seed: 42})
		tr := sim.Run(p, sim.Config{Seed: 42}).Trace
		css := tr.ExtractCS()
		keys := make([]string, len(css))
		for i, c := range css {
			keys[i] = shapeKey(c)
		}
		table, _ := BuildVerdictTable(tr, css, Options{})
		for _, with := range []*VerdictTable{nil, table} {
			what := fmt.Sprintf("%s t%d x%v, table %t", c.app, c.threads, c.scale, with != nil)
			id := newIdentifier(tr, css, Options{}, with)
			rep := id.run()
			if len(id.shapes.list) > maxShapes {
				t.Fatalf("%s: %d shapes, past the table's %d", what, len(id.shapes.list), maxShapes)
			}
			shapePairs := make(map[[2]string]bool)
			for _, p := range rep.Pairs {
				shapePairs[[2]string{keys[p.C1], keys[p.C2]}] = true
			}
			t.Logf("%s: %d pairs, %d shapes, %d shape pairs, %d classified", what, len(rep.Pairs), len(id.shapes.list), len(shapePairs), id.merges)
			if id.merges != len(shapePairs) {
				t.Errorf("%s: classified %d times for %d shape pairs", what, id.merges, len(shapePairs))
			}
			if len(rep.Pairs) < 10*len(shapePairs) {
				t.Fatalf("%s: %d pairs over %d shape pairs: the fixture no longer repeats shape pairs", what, len(rep.Pairs), len(shapePairs))
			}
		}
	}
}
