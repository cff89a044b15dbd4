package perfdbg

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// inputs is everything Evaluate consumes: the pre-debugging pipeline's
// outcome on one recorded program.
type inputs struct {
	tr         *trace.Trace
	css        []*trace.CritSec
	rep        *ulcp.Report
	orig, free *replay.Result
}

// prepare runs the full pre-debugging pipeline on a program.
func prepare(t testing.TB, p *sim.Program, seed int64) inputs {
	t.Helper()
	rec := sim.Run(p, sim.Config{Seed: seed})
	css := rec.Trace.ExtractCS()
	rep := ulcp.Identify(rec.Trace, css, ulcp.Options{})
	tres, err := transform.Apply(rec.Trace, css, rep)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	free, err := replay.Run(tres.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		t.Fatal(err)
	}
	return inputs{rec.Trace, css, rep, orig, free}
}

func prepareBuilt(t testing.TB, build func(p *sim.Program)) inputs {
	t.Helper()
	p := sim.NewProgram("t")
	build(p)
	return prepare(t, p, 21)
}

func prepareApp(t testing.TB, app string, threads int, scale float64, seed int64) inputs {
	t.Helper()
	p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: scale, Seed: seed})
	return prepare(t, p, seed)
}

func (in inputs) evaluate() *Debug {
	return Evaluate(in.tr, in.css, in.rep, in.orig, in.free, in.tr.NumThreads)
}

// deltas returns Eq. 1 per dynamic ULCP, in report order, from the
// visitor Evaluate is written over.
func (in inputs) deltas() []vtime.Duration {
	var out []vtime.Duration
	newCSTable(in.tr, in.css, newFuser()).eachULCP(in.rep, in.orig, in.free,
		func(_ *ulcp.Pair, _, _ int32, dt vtime.Duration) { out = append(out, dt) })
	return out
}

func contended(threads, iters int) func(p *sim.Program) {
	return func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 4)
		s := p.Site("hot.c", 10, "reader")
		for i := 0; i < threads; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < iters; j++ {
					th.Lock(l, s)
					th.Read(x, s)
					th.Compute(600)
					th.Unlock(l, s)
					th.Compute(150)
				}
			})
		}
	}
}

func TestEvaluateDegradationPositive(t *testing.T) {
	in := prepareBuilt(t, contended(3, 8))
	d := in.evaluate()
	if d.Tpd <= 0 {
		t.Fatalf("Tpd = %v, want > 0 for a contended read-only workload", d.Tpd)
	}
	if d.NormalizedDegradation() <= 0 || d.NormalizedDegradation() >= 1 {
		t.Fatalf("normalized degradation = %v out of range", d.NormalizedDegradation())
	}
	if d.SumDelta <= 0 {
		t.Fatal("Eq. 1 sum must be positive")
	}
	if len(in.deltas()) == 0 {
		t.Fatal("no per-pair measurements")
	}
}

func TestGroupsFuseSameRegion(t *testing.T) {
	in := prepareBuilt(t, contended(2, 10))
	d := in.evaluate()
	// All pairs come from one code region pair: exactly one group.
	if len(d.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(d.Groups))
	}
	g := d.Groups[0]
	if n := in.rep.NumULCPs(); g.Count != n || len(in.deltas()) != n {
		t.Fatalf("group count %d, %d per-pair measurements, want %d ULCPs", g.Count, len(in.deltas()), n)
	}
	if g.P < 0.999 {
		t.Fatalf("single group P = %v, want ~1", g.P)
	}
	if !strings.Contains(g.String(), "hot.c") {
		t.Errorf("group string %q missing region", g.String())
	}
}

func TestGroupsSeparateRegions(t *testing.T) {
	d := prepareBuilt(t, func(p *sim.Program) {
		l1 := p.NewLock("L1")
		l2 := p.NewLock("L2")
		x := p.Mem.Alloc("x", 1)
		y := p.Mem.Alloc("y", 2)
		sa := p.Site("a.c", 10, "ra")
		sb := p.Site("b.c", 20, "rb")
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 6; j++ {
					th.Lock(l1, sa)
					th.Read(x, sa)
					th.Compute(700)
					th.Unlock(l1, sa)
					th.Lock(l2, sb)
					th.Read(y, sb)
					th.Compute(250)
					th.Unlock(l2, sb)
					th.Compute(120)
				}
			})
		}
	}).evaluate()
	if len(d.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 distinct code regions", len(d.Groups))
	}
	// Eq. 2: shares sum to 1 and are ranked descending.
	total := 0.0
	for _, g := range d.Groups {
		total += g.P
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("ΣP = %v, want 1", total)
	}
	if d.Groups[0].P < d.Groups[1].P {
		t.Fatal("groups not ranked by P descending")
	}
	// The longer critical section (a.c) should be the top recommendation.
	if d.Groups[0].CR1.File != "a.c" {
		t.Errorf("top group = %v, want the a.c region", d.Groups[0].CR1)
	}
	if got := d.Recommend(1); len(got) != 1 || got[0] != d.Groups[0] {
		t.Error("Recommend(1) must return the top group")
	}
}

func TestFuseAlgorithm2Overlap(t *testing.T) {
	r := func(a, b int) trace.Region { return trace.Region{File: "f.c", StartLine: a, EndLine: b} }
	f := newFuser()
	add := func(cr1, cr2 trace.Region, dt vtime.Duration) {
		f.add(f.intern(cr1), f.intern(cr2), ulcp.ReadRead, dt)
	}
	// Two pairs with overlapping (not identical) regions must fuse, and a
	// crossed pair (CR1↔CR2 swapped) must fuse too.
	add(r(10, 20), r(100, 110), 5)
	add(r(15, 25), r(105, 115), 7)
	add(r(102, 112), r(12, 22), 3) // crossed
	add(r(500, 510), r(600, 610), 11)
	groups := fuseOverlaps(f.groups)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (three fused + one separate)", len(groups))
	}
	var fused *Group
	for _, g := range groups {
		if g.Count == 3 {
			fused = g
		}
	}
	if fused == nil {
		t.Fatal("three overlapping pairs did not fuse into one group")
	}
	if fused.DeltaT != 15 {
		t.Fatalf("fused ΔT = %v, want 15 (accumulation)", fused.DeltaT)
	}
	if fused.CR1.StartLine != 10 || fused.CR1.EndLine != 25 {
		t.Fatalf("fused CR1 = %v, want f.c:10-25", fused.CR1)
	}
	if fused.Cats[ulcp.ReadRead] != 3 {
		t.Fatalf("fused Cats = %v, want 3 read-read", fused.Cats)
	}
}

func TestCPUWastePerThread(t *testing.T) {
	d := &Debug{Tut: 1000, Trw: 200}
	if got := d.CPUWastePerThread(2); got != 0.1 {
		t.Fatalf("waste/thread = %v, want 0.1", got)
	}
	if got := d.CPUWastePerThread(0); got != 0 {
		t.Fatal("zero threads must not divide by zero")
	}
	empty := &Debug{}
	if empty.NormalizedDegradation() != 0 || empty.CPUWastePerThread(2) != 0 {
		t.Fatal("empty debug must normalize to zero")
	}
}

func TestEq1NonNegative(t *testing.T) {
	in := prepareBuilt(t, contended(4, 6))
	deltas := in.deltas()
	if len(deltas) != in.rep.NumULCPs() {
		t.Fatalf("%d per-pair measurements, want %d ULCPs", len(deltas), in.rep.NumULCPs())
	}
	for i, dt := range deltas {
		if dt < 0 {
			t.Fatalf("ΔT = %v < 0 for ULCP %d", dt, i)
		}
	}
}

// TestGroupCatsTally gives Group.Cats its reader: every group's tally
// sums to its Count, and per category the groups sum to the report's.
func TestGroupCatsTally(t *testing.T) {
	for _, app := range []string{"mysql", "openldap", "pbzip2"} {
		in := prepareApp(t, app, 4, 0.2, 7)
		var perCat [ulcp.NumCategories]int
		for _, g := range in.evaluate().Groups {
			sum := 0
			for c, n := range g.Cats {
				sum += n
				perCat[c] += n
			}
			if sum != g.Count {
				t.Errorf("%s: %v: ΣCats = %d, Count = %d", app, g, sum, g.Count)
			}
		}
		for c := ulcp.Category(0); c < ulcp.NumCategories; c++ {
			want := in.rep.Counts[c]
			if !c.IsULCP() {
				want = 0
			}
			if perCat[c] != want {
				t.Errorf("%s: %v: groups tally %d, report counts %d", app, c, perCat[c], want)
			}
		}
	}
}

// evaluateRef is the Evaluate this package shipped before the streaming
// fold, kept as the oracle: Eq. 1 per ULCP materialized into a slice,
// each pair's IDs resolved through a map over css (a pair naming an ID
// css does not hold is skipped), boundaries in maps keyed by thread and
// CritSec.ID, and stage 1 of
// Algorithm 2 keyed by the two regions' rendered text. Stage 2 and the
// ranking are the production functions.
func evaluateRef(tr *trace.Trace, css []*trace.CritSec, rep *ulcp.Report, orig, free *replay.Result) *Debug {
	type csBounds struct{ prevRel, nextAcq, lastEv int32 }
	bounds := func() map[int]csBounds {
		perThread := make(map[int32][]*trace.CritSec)
		for _, cs := range css {
			perThread[cs.Thread] = append(perThread[cs.Thread], cs)
		}
		lastEv := make(map[int32]int32)
		for t, evs := range tr.PerThread() {
			if len(evs) > 0 {
				lastEv[int32(t)] = evs[len(evs)-1]
			}
		}
		out := make(map[int]csBounds, len(css))
		for t, list := range perThread {
			sort.Slice(list, func(i, j int) bool { return list[i].AcqEv < list[j].AcqEv })
			for i, cs := range list {
				b := csBounds{prevRel: -1, nextAcq: -1, lastEv: lastEv[t]}
				if i > 0 {
					b.prevRel = list[i-1].RelEv
				}
				if i+1 < len(list) {
					b.nextAcq = list[i+1].AcqEv
				}
				out[cs.ID] = b
			}
		}
		return out
	}
	times := func(b csBounds, res *replay.Result) (t1, t2 vtime.Time) {
		if b.prevRel >= 0 {
			t1 = res.EventEnd[b.prevRel]
		}
		if b.nextAcq >= 0 {
			t2 = res.EventStart[b.nextAcq]
		} else if b.lastEv >= 0 {
			t2 = res.EventEnd[b.lastEv]
		}
		return t1, t2
	}

	d := &Debug{Tut: orig.Total, Tuft: free.Total}
	d.Tpd = max(d.Tut-d.Tuft, 0)
	d.SpinWasteSaved = max(orig.SpinWaste-free.SpinWaste, 0)
	d.Trw = max((orig.Waited+orig.SpinWaste)-(free.Waited+free.SpinWaste), 0)

	type pairPerf struct {
		c1, c2 *trace.CritSec
		cat    ulcp.Category
		deltaT vtime.Duration
	}
	var perPair []pairPerf
	bds := bounds()
	byID := make(map[int]*trace.CritSec, len(css))
	for _, cs := range css {
		byID[cs.ID] = cs
	}
	for _, p := range rep.Pairs {
		if !p.Cat.IsULCP() {
			continue
		}
		c1, ok1 := byID[int(p.C1)]
		c2, ok2 := byID[int(p.C2)]
		if !ok1 || !ok2 {
			continue
		}
		ba, bb := bds[c1.ID], bds[c2.ID]
		t1o, t2o := times(ba, orig)
		_, t3o := times(bb, orig)
		t1n, t2n := times(ba, free)
		_, t3n := times(bb, free)
		dt := max(vtime.Max(t2o, t3o).Sub(vtime.Max(t2n, t3n))-t1o.Sub(t1n), 0)
		perPair = append(perPair, pairPerf{c1, c2, p.Cat, dt})
		d.SumDelta += dt
	}

	byKey := make(map[string]*Group)
	var groups []*Group
	for _, pp := range perPair {
		cr1, cr2 := normPair(pp.c1.Region, pp.c2.Region)
		key := cr1.String() + "|" + cr2.String()
		g, ok := byKey[key]
		if !ok {
			g = &Group{CR1: cr1, CR2: cr2}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.DeltaT += pp.deltaT
		g.Count++
		g.Cats[pp.cat]++
	}
	d.Groups = rank(fuseOverlaps(groups))
	return d
}

// requireMatchesRef fails unless Evaluate equals evaluateRef on in, in
// every field, group order and the bits of every P included.
func (in inputs) requireMatchesRef(t *testing.T, what string) *Debug {
	t.Helper()
	got, want := in.evaluate(), evaluateRef(in.tr, in.css, in.rep, in.orig, in.free)
	scalars := func(d *Debug) [6]vtime.Duration {
		return [6]vtime.Duration{d.Tut, d.Tuft, d.Tpd, d.SumDelta, d.Trw, d.SpinWasteSaved}
	}
	if scalars(got) != scalars(want) {
		t.Fatalf("%s: Tut/Tuft/Tpd/SumDelta/Trw/SpinWasteSaved = %v, want %v", what, scalars(got), scalars(want))
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", what, len(got.Groups), len(want.Groups))
	}
	for i, g := range got.Groups {
		if !reflect.DeepEqual(g, want.Groups[i]) {
			t.Fatalf("%s: group %d = %+v, want %+v", what, i, *g, *want.Groups[i])
		}
	}
	return got
}

// TestEvaluateMatchesReference is the differential oracle for the
// streaming fold: over every registered workload the optimized Evaluate
// and the string-keyed reference agree field for field.
func TestEvaluateMatchesReference(t *testing.T) {
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				what := fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed)
				prepareApp(t, app, threads, 0.1, seed).requireMatchesRef(t, what)
			}
		}
	}
}

// crossedRegions has two threads loop over critical sections whose code
// regions overlap without being identical. Under lock L one thread runs
// A and A′, the other B and B′, so the report holds pairs in both
// orientations — (A,B) and (B′,A′) — that fuse directly once each is
// normalized. Under lock M a sliver Y nested in A meets a span X covering
// A through B: normalized (X,Y) overlaps (A,B) only crossed. A distant
// region pair under a third lock must stay a group of its own.
func crossedRegions(p *sim.Program) {
	l, m, far := p.NewLock("L"), p.NewLock("M"), p.NewLock("far")
	x, y, z := p.Mem.Alloc("x", 4), p.Mem.Alloc("y", 4), p.Mem.Alloc("z", 4)
	type section struct {
		lock     trace.LockID
		cell     memmodel.Addr
		from, to trace.SiteID
	}
	cs := func(lock trace.LockID, cell memmodel.Addr, file string, from, to int) section {
		return section{lock, cell, p.Site(file, from, "f"), p.Site(file, to, "f")}
	}
	for _, sections := range [][]section{
		{cs(l, x, "f.c", 10, 20) /* A */, cs(l, x, "f.c", 15, 25) /* A′ */, cs(m, y, "f.c", 16, 17) /* Y */, cs(far, z, "g.c", 500, 510)},
		{cs(l, x, "f.c", 100, 110) /* B */, cs(l, x, "f.c", 105, 115) /* B′ */, cs(m, y, "f.c", 15, 120) /* X */, cs(far, z, "g.c", 600, 610)},
	} {
		p.AddThread(func(th *sim.Thread) {
			for round := 0; round < 2; round++ {
				for _, s := range sections {
					th.Lock(s.lock, s.from)
					th.Read(s.cell, s.to)
					th.Compute(300)
					th.Unlock(s.lock, s.to)
					th.Compute(80)
				}
			}
		})
	}
}

func TestEvaluateMatchesReferenceCrossedRegions(t *testing.T) {
	in := prepareBuilt(t, crossedRegions)
	f := newFuser()
	orientations := map[bool]bool{}
	newCSTable(in.tr, in.css, f).eachULCP(in.rep, in.orig, in.free,
		func(p *ulcp.Pair, r1, r2 int32, dt vtime.Duration) {
			if c1, c2 := in.css[p.C1], in.css[p.C2]; c1.Region.File == "f.c" {
				orientations[c1.Region.Less(c2.Region)] = true
			}
			f.add(r1, r2, p.Cat, dt)
		})
	if len(orientations) != 2 {
		t.Fatalf("report holds f.c pairs in orientations %v, want both", orientations)
	}
	d := in.requireMatchesRef(t, "crossed regions")
	if len(d.Groups) != 2 || len(f.groups) <= 2 {
		t.Fatalf("%d exact region pairs fused into %d groups, want several into 2", len(f.groups), len(d.Groups))
	}
	for _, g := range d.Groups {
		if g.CR1.File == "f.c" && (g.CR1.String() != "f.c:10-25" || g.CR2.String() != "f.c:15-120") {
			t.Fatalf("fused f.c group = %v, want A∪A′ <-> B∪B′∪X", g)
		}
	}
}

// TestEvaluateUntrustedIDs pins the slice-indexed boundary table to the
// reference's map lookup on inputs ExtractCS never produces:
// CritSec.IDs that are not the dense extraction indices, css out of event
// order, and pair rows naming IDs css does not hold. A row naming an ID
// without an entry is skipped; none of it may panic or index out of
// range.
func TestEvaluateUntrustedIDs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(in *inputs)
		// none: every row names an ID css does not hold, so no group
		// forms.
		none bool
	}{
		{"dense", func(in *inputs) {}, false},
		{"sparse IDs", func(in *inputs) {
			for _, cs := range in.css {
				cs.ID = cs.ID*3 + 5
			}
		}, false},
		{"css reversed", func(in *inputs) {
			for i, j := 0, len(in.css)-1; i < j; i, j = i+1, j-1 {
				in.css[i], in.css[j] = in.css[j], in.css[i]
			}
		}, false},
		{"css empty", func(in *inputs) { in.css = nil }, true},
		{"css missing its tail", func(in *inputs) { in.css = in.css[:len(in.css)/2] }, false},
		{"IDs css does not hold", func(in *inputs) {
			n := int32(len(in.css))
			for i := range in.rep.Pairs {
				p := &in.rep.Pairs[i]
				switch i % 4 {
				case 0:
					p.C1 = n + 100 + int32(i) // beyond the table
				case 1:
					p.C2 = -1 - int32(i) // negative
				case 2:
					p.C1 = p.C2 // another section's ID
				}
			}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := prepareApp(t, "mysql", 4, 0.1, 7)
			tc.mutate(&in)
			if d := in.requireMatchesRef(t, tc.name); (len(d.Groups) == 0) != tc.none {
				t.Fatalf("%d groups, want none: %v", len(d.Groups), tc.none)
			}
		})
	}
}

// TestEvaluateAllocsIndependentOfULCPs pins the streaming fold's heap
// use: doubling the trace doubles the ULCPs Evaluate folds and leaves its
// allocations where they were — a constant for the tables, plus two per
// group (the group itself and its share of map and slice growth).
func TestEvaluateAllocsIndependentOfULCPs(t *testing.T) {
	const fixed, perGroup = 16, 2 // measured: 57 allocations at 25 groups, 20 at 2
	var ulcps, groups [2]int
	var allocs [2]float64
	for i, scale := range []float64{0.25, 0.5} {
		in := prepareApp(t, "mysql", 4, scale, 42)
		var d *Debug
		allocs[i] = testing.AllocsPerRun(5, func() { d = in.evaluate() })
		ulcps[i], groups[i] = in.rep.NumULCPs(), len(d.Groups)
		if bound := float64(fixed + perGroup*groups[i]); allocs[i] > bound {
			t.Errorf("scale %v: %v allocs for %d ULCPs in %d groups, want <= %v",
				scale, allocs[i], ulcps[i], groups[i], bound)
		}
	}
	if ulcps[1] < 2*ulcps[0] {
		t.Fatalf("ULCPs %v: the larger trace must at least double them", ulcps)
	}
	if groups[0] == groups[1] && allocs[0] != allocs[1] {
		t.Errorf("allocs %v for ULCPs %v in %v groups: must not grow with the ULCP count", allocs, ulcps, groups)
	}
}

// TestEvaluateManyRegions: past maxPairIndex regions, stage 1 groups the
// pairs of the regions beyond the dense index through its map, and
// Evaluate still equals the reference field for field.
func TestEvaluateManyRegions(t *testing.T) {
	const perThread = maxPairIndex/2 + 8
	in := prepareBuilt(t, func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 4)
		for th := 0; th < 2; th++ {
			p.AddThread(func(tt *sim.Thread) {
				for j := 0; j < perThread; j++ {
					s := p.Site("many.c", 1000*th+10*j, "f")
					tt.Lock(l, s)
					tt.Read(x, s)
					tt.Compute(300)
					tt.Unlock(l, s)
					tt.Compute(50)
				}
			})
		}
	})
	f := newFuser()
	beyond := 0
	newCSTable(in.tr, in.css, f).eachULCP(in.rep, in.orig, in.free,
		func(p *ulcp.Pair, r1, r2 int32, dt vtime.Duration) {
			if max(r1, r2) >= f.width {
				beyond++
			}
		})
	if len(f.regions) <= maxPairIndex || beyond == 0 {
		t.Fatalf("%d regions, %d ULCPs past the dense index: the map goes unexercised", len(f.regions), beyond)
	}
	in.requireMatchesRef(t, "many regions")
}
