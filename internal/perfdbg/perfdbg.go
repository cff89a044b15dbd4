// Package perfdbg implements Sec. 4 of the paper: quantifying the
// performance impact of every ULCP from the two replays (Eq. 1), fusing
// ULCPs generated by the same code regions (Algorithm 2), and ranking the
// fused groups by relative optimization opportunity (Eq. 2) to recommend
// the most profitable code region.
package perfdbg

import (
	"fmt"
	"sort"

	"perfplay/internal/replay"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
)

// Group is a fused set of ULCPs produced by one code-region pair
// (Algorithm 2's synthetic ULCP).
type Group struct {
	// CR1 and CR2 are the conflated code regions.
	CR1, CR2 trace.Region
	// DeltaT is the accumulated performance improvement.
	DeltaT vtime.Duration
	// Count is the number of dynamic ULCPs fused into the group.
	Count int
	// Cats tallies the categories of the fused pairs, indexed by
	// ulcp.Category; ΣCats = Count.
	Cats [ulcp.NumCategories]int
	// P is Eq. 2's relative optimizable value within the whole group set.
	P float64
}

// String renders a recommendation line.
func (g *Group) String() string {
	return fmt.Sprintf("%s <-> %s: ΔT=%v over %d ULCPs (P=%.1f%%)",
		g.CR1, g.CR2, g.DeltaT, g.Count, g.P*100)
}

// Debug is the full Sec. 4 outcome.
type Debug struct {
	// Tut and Tuft are the replayed totals of the ULCP trace and the
	// ULCP-free trace.
	Tut, Tuft vtime.Duration
	// Tpd = Tut − Tuft is the performance degradation attributable to
	// ULCPs (Sec. 6.3).
	Tpd vtime.Duration
	// SumDelta is ΣΔT over all ULCPs. ULCP windows overlap (a critical
	// section participates in many pairs), so the sum over-counts shared
	// waits; it drives the *relative* ranking of Eq. 2, not Trw.
	SumDelta vtime.Duration
	// Trw is the resource wasting on non-critical paths — the measured
	// reduction in blocked waiting plus spin-burned CPU between the two
	// replays. (The paper derives Trw as ΣΔ − Tpd; with overlapping pair
	// windows that expression over-counts, so PerfPlay reports the direct
	// measurement the simulator makes available.)
	Trw vtime.Duration
	// SpinWasteSaved is the directly measured reduction in spin-lock CPU
	// burn between the two replays (a second, direct view of Trw).
	SpinWasteSaved vtime.Duration
	// Groups are the fused code-region groups, sorted by P descending;
	// Groups[0] is the recommended most performance-critical ULCP.
	Groups []*Group
}

// NormalizedDegradation is Tpd normalized by the original execution time —
// the "performance degradation" bars of Fig. 14.
func (d *Debug) NormalizedDegradation() float64 {
	if d.Tut == 0 {
		return 0
	}
	return float64(d.Tpd) / float64(d.Tut)
}

// CPUWastePerThread is Trw divided across threads and normalized by the
// original execution time — the "CPU time wasting per thread" bars of
// Fig. 14.
func (d *Debug) CPUWastePerThread(threads int) float64 {
	if d.Tut == 0 || threads == 0 {
		return 0
	}
	return float64(d.Trw) / float64(threads) / float64(d.Tut)
}

// Recommend returns the top-k groups (the paper recommends Groups[0]).
func (d *Debug) Recommend(k int) []*Group {
	if k > len(d.Groups) {
		k = len(d.Groups)
	}
	return d.Groups[:k]
}

// csEntry is what Evaluate knows about one critical section: the
// interned identity of its code region and, once eachULCP has read the
// two replays, the terms of Eq. 1 it brings to a pair — Time2 under the
// original and the ULCP-free replay, and ∆Time1.
type csEntry struct {
	t2o, t2n vtime.Time
	dt1      vtime.Duration
	region   int32 // fuser identity of cs.Region
	ok       bool  // a critical section has this ID
}

// csBounds are a critical section's segment boundaries within its
// thread, as event indices usable against both replays (the transformed
// trace is index-aligned).
type csBounds struct {
	prevRel int32 // release event of the previous CS on the thread, or -1
	nextAcq int32 // acquire event of the next CS on the thread, or -1
	lastEv  int32 // final event of the thread
}

// csTable holds one csEntry and its csBounds per critical section,
// indexed by CritSec.ID — the IDs a report's pair rows name. ExtractCS
// hands out IDs as dense extraction indices, but the table does not
// rely on it: it spans the largest ID present, and an ID it has no
// critical section for has no entry.
type csTable struct {
	byID   []csEntry
	bounds []csBounds
}

// newCSTable computes the segment boundaries of every critical section
// and interns its region with f. css in global event order (as ExtractCS
// returns it) is ascending in AcqEv within each thread, so one pass links
// each section to its thread's previous one; css in any other order is
// put in that order first.
func newCSTable(tr *trace.Trace, css []*trace.CritSec, f *fuser) csTable {
	byAcq := func(i, j int) bool { return css[i].AcqEv < css[j].AcqEv }
	if !sort.SliceIsSorted(css, byAcq) {
		css = append([]*trace.CritSec(nil), css...)
		sort.Slice(css, byAcq)
	}
	pt := tr.PerThread()
	maxID, threads := -1, len(pt)
	for _, cs := range css {
		maxID = max(maxID, cs.ID)
		threads = max(threads, int(cs.Thread)+1)
	}
	tab := csTable{byID: make([]csEntry, maxID+1), bounds: make([]csBounds, maxID+1)}
	prev := make([]*trace.CritSec, threads) // each thread's latest section so far
	for _, cs := range css {
		if cs.ID < 0 {
			continue
		}
		tab.byID[cs.ID] = csEntry{region: f.intern(cs.Region), ok: true}
		b := &tab.bounds[cs.ID]
		*b = csBounds{prevRel: -1, nextAcq: -1}
		if t := int(cs.Thread); t < len(pt) && len(pt[t]) > 0 {
			b.lastEv = pt[t][len(pt[t])-1]
		}
		if p := prev[cs.Thread]; p != nil {
			b.prevRel = p.RelEv
			tab.bounds[p.ID].nextAcq = cs.AcqEv
		}
		prev[cs.Thread] = cs
	}
	f.index()
	return tab
}

// lookup returns the entry recorded under a critical-section ID, or nil
// when the table has none.
func (tab csTable) lookup(id int32) *csEntry {
	if id < 0 || int(id) >= len(tab.byID) || !tab.byID[id].ok {
		return nil
	}
	return &tab.byID[id]
}

// times resolves (Time1, Time2) for a CS under one replay: the start of
// its precursor segment and the end of its successor segment (Fig. 10).
func (b *csBounds) times(res *replay.Result) (t1, t2 vtime.Time) {
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

// eachULCP computes Eq. 1 for every ULCP of rep, in report order, and
// hands visit the pair, the interned regions of its two critical sections
// and ∆T_ULCP = ∆MAX{Time2, Time3} − ∆Time1, clamped at zero. One pass
// over the sections first reads their boundary times off both replays,
// so a pair reads two entries, not the replays' event arrays. A pair
// naming an ID the table has no critical section for is skipped.
func (tab csTable) eachULCP(rep *ulcp.Report, orig, free *replay.Result,
	visit func(p *ulcp.Pair, r1, r2 int32, dt vtime.Duration)) {

	for i := range tab.byID {
		if e := &tab.byID[i]; e.ok {
			t1o, t2o := tab.bounds[i].times(orig)
			t1n, t2n := tab.bounds[i].times(free)
			e.t2o, e.t2n, e.dt1 = t2o, t2n, t1o.Sub(t1n)
		}
	}
	for i := range rep.Pairs {
		p := &rep.Pairs[i]
		if !p.Cat.IsULCP() {
			continue
		}
		a, b := tab.lookup(p.C1), tab.lookup(p.C2)
		if a == nil || b == nil {
			continue
		}
		dt := vtime.Max(a.t2o, b.t2o).Sub(vtime.Max(a.t2n, b.t2n)) - a.dt1
		if dt < 0 {
			dt = 0
		}
		visit(p, a.region, b.region, dt)
	}
}

// Evaluate computes Eq. 1 for every ULCP from the original-trace replay
// (orig) and ULCP-free-trace replay (free), fuses the results per code
// region (Algorithm 2) and ranks them (Eq. 2). It is one pass over the
// report's pairs: each ΔT folds straight into its group, and the work per
// pair is integer compares and table indexing.
func Evaluate(tr *trace.Trace, css []*trace.CritSec, rep *ulcp.Report,
	orig, free *replay.Result, threads int) *Debug {

	d := &Debug{
		Tut:  orig.Total,
		Tuft: free.Total,
	}
	d.Tpd = d.Tut - d.Tuft
	if d.Tpd < 0 {
		d.Tpd = 0
	}
	d.SpinWasteSaved = orig.SpinWaste - free.SpinWaste
	if d.SpinWasteSaved < 0 {
		d.SpinWasteSaved = 0
	}
	d.Trw = (orig.Waited + orig.SpinWaste) - (free.Waited + free.SpinWaste)
	if d.Trw < 0 {
		d.Trw = 0
	}

	f := newFuser()
	newCSTable(tr, css, f).eachULCP(rep, orig, free,
		func(p *ulcp.Pair, r1, r2 int32, dt vtime.Duration) {
			d.SumDelta += dt
			f.add(r1, r2, p.Cat, dt)
		})
	d.Groups = rank(fuseOverlaps(f.groups))
	_ = threads
	return d
}

// rank sets every group's Eq. 2 share and sorts the groups by it,
// descending, ties broken by region.
func rank(groups []*Group) []*Group {
	total := vtime.Duration(0)
	for _, g := range groups {
		total += g.DeltaT
	}
	for _, g := range groups {
		if total > 0 {
			g.P = float64(g.DeltaT) / float64(total)
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].DeltaT != groups[j].DeltaT {
			return groups[i].DeltaT > groups[j].DeltaT
		}
		if !groups[i].CR1.Less(groups[j].CR1) && !groups[j].CR1.Less(groups[i].CR1) {
			return groups[i].CR2.Less(groups[j].CR2)
		}
		return groups[i].CR1.Less(groups[j].CR1)
	})
	return groups
}

// normPair orders a region pair canonically so (A,B) and (B,A) fuse.
func normPair(a, b trace.Region) (trace.Region, trace.Region) {
	if b.Less(a) {
		return b, a
	}
	return a, b
}

// fuser is stage 1 of Algorithm 2: exact region-pair grouping, which
// covers the vast majority of pairs and keeps the fixpoint small. Regions
// are interned to dense integers once per critical section, so grouping a
// pair indexes a table over the unordered pair of its two identities; a
// region is ordered and formatted as text only when a group or a report
// line is made.
type fuser struct {
	ids     map[trace.Region]int32
	regions []trace.Region
	// byPair[lo*width+hi] is 1 + the index in groups of the pair of
	// regions lo ≤ hi < width; a pair past width is found in byKey.
	byPair []int32
	width  int32
	byKey  map[uint64]*Group
	groups []*Group // in first-seen pair order
}

// maxPairIndex bounds the regions the dense pair index covers, so it
// stays a few pages however many regions a trace has.
const maxPairIndex = 64

func newFuser() *fuser {
	return &fuser{ids: make(map[trace.Region]int32), byKey: make(map[uint64]*Group)}
}

// intern returns r's dense identity, assigning the next one on first sight.
func (f *fuser) intern(r trace.Region) int32 {
	id, ok := f.ids[r]
	if !ok {
		id = int32(len(f.regions))
		f.ids[r] = id
		f.regions = append(f.regions, r)
	}
	return id
}

// index sizes the dense pair index over the regions interned so far.
func (f *fuser) index() {
	f.width = int32(min(len(f.regions), maxPairIndex))
	f.byPair = make([]int32, f.width*f.width)
}

// add folds one ULCP between interned regions r1 and r2 into its group.
func (f *fuser) add(r1, r2 int32, cat ulcp.Category, dt vtime.Duration) {
	lo, hi := min(r1, r2), max(r1, r2)
	var g *Group
	if hi < f.width {
		slot := &f.byPair[lo*f.width+hi]
		if *slot == 0 {
			f.group(r1, r2)
			*slot = int32(len(f.groups))
		}
		g = f.groups[*slot-1]
	} else {
		key := uint64(lo)<<32 | uint64(hi)
		if g = f.byKey[key]; g == nil {
			g = f.group(r1, r2)
			f.byKey[key] = g
		}
	}
	g.DeltaT += dt
	g.Count++
	if cat < ulcp.NumCategories {
		g.Cats[cat]++
	}
}

// group starts the group of regions r1 and r2.
func (f *fuser) group(r1, r2 int32) *Group {
	g := &Group{}
	g.CR1, g.CR2 = normPair(f.regions[r1], f.regions[r2])
	f.groups = append(f.groups, g)
	return g
}

// fuseOverlaps is stage 2 of Algorithm 2: groups whose code-region pairs
// overlap (directly or crossed) merge into one synthetic ULCP whose ΔT
// accumulates, iterated to fixpoint so no two groups remain fusable.
func fuseOverlaps(groups []*Group) []*Group {
	for {
		merged := false
	outer:
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				gi, gj := groups[i], groups[j]
				direct := gi.CR1.Overlaps(gj.CR1) && gi.CR2.Overlaps(gj.CR2)
				crossed := gi.CR1.Overlaps(gj.CR2) && gi.CR2.Overlaps(gj.CR1)
				if !direct && !crossed {
					continue
				}
				if direct {
					gi.CR1 = gi.CR1.Merge(gj.CR1)
					gi.CR2 = gi.CR2.Merge(gj.CR2)
				} else {
					gi.CR1 = gi.CR1.Merge(gj.CR2)
					gi.CR2 = gi.CR2.Merge(gj.CR1)
				}
				gi.CR1, gi.CR2 = normPair(gi.CR1, gi.CR2)
				gi.DeltaT += gj.DeltaT
				gi.Count += gj.Count
				for c, n := range gj.Cats {
					gi.Cats[c] += n
				}
				groups = append(groups[:j], groups[j+1:]...)
				merged = true
				break outer
			}
		}
		if !merged {
			return groups
		}
	}
}
