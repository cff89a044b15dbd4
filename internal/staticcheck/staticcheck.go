// Package staticcheck implements the static-analysis strawman of the
// paper's Sec. 7.2: a detector that, like a static exploration tool, can
// only reason at the code-region level. It merges the access sets of all
// dynamic instances of each region and classifies region *pairs* — and
// therefore "may produce abundant false ULCPs due to the runtime behaviors
// of ULCPs": a region that only sometimes writes looks like it always
// writes, and two regions that never overlapped at runtime still pair.
//
// The package exists to quantify that claim against PerfPlay's dynamic
// identification (see CompareWithDynamic and the corresponding test).
package staticcheck

import (
	"sort"

	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
)

// RegionSummary is how a static tool sees one synchronized code region:
// the union of everything any execution of it might touch.
type RegionSummary struct {
	Region trace.Region
	Lock   trace.LockID
	// Union is the region as one critical section that touches whatever
	// any of its dynamic instances did.
	Union trace.CritSec
	// Dynamic counts how many dynamic critical sections the region had.
	Dynamic int
}

// Finding is one statically-claimed ULCP between two regions of a lock.
type Finding struct {
	R1, R2 trace.Region
	Lock   trace.LockID
	Cat    ulcp.Category
}

// Report is the static analysis outcome plus its confusion matrix against
// the dynamic ground truth.
type Report struct {
	Regions  []*RegionSummary
	Findings []Finding
	// TruePositive counts static ULCP region pairs that the dynamic
	// analysis also found at least one ULCP for; FalsePositive those it
	// never did; Missed counts dynamically-ULCP region pairs the static
	// view classified as conflicting.
	TruePositive, FalsePositive, Missed int
}

// Analyze summarizes regions from a recorded trace the way a static tool
// would see the program (per code region, flow-insensitive) and classifies
// every same-lock region pair with Algorithm 1.
func Analyze(tr *trace.Trace) *Report {
	css := tr.ExtractCS()
	byKey := make(map[string]*RegionSummary)
	raw := make(map[*RegionSummary][]trace.Access) // the instances' access lists
	for _, cs := range css {
		key := cs.Lock.String() + "|" + cs.Region.String()
		rs, ok := byKey[key]
		if !ok {
			rs = &RegionSummary{Region: cs.Region, Lock: cs.Lock}
			byKey[key] = rs
		}
		rs.Dynamic++
		raw[rs] = append(raw[rs], cs.Acc...)
	}
	rep := &Report{}
	for _, rs := range byKey {
		rs.Union.SetAccesses(nil, raw[rs])
		rep.Regions = append(rep.Regions, rs)
	}
	sort.Slice(rep.Regions, func(i, j int) bool {
		if rep.Regions[i].Lock != rep.Regions[j].Lock {
			return rep.Regions[i].Lock < rep.Regions[j].Lock
		}
		return rep.Regions[i].Region.Less(rep.Regions[j].Region)
	})
	// Pair every two regions of the same lock (including self-pairs: a
	// region contending with itself across threads).
	byLock := make(map[trace.LockID][]*RegionSummary)
	for _, rs := range rep.Regions {
		byLock[rs.Lock] = append(byLock[rs.Lock], rs)
	}
	for l, regions := range byLock {
		for i := 0; i < len(regions); i++ {
			for j := i; j < len(regions); j++ {
				// Algorithm 1 over the merged summaries.
				cat := ulcp.Classify(&regions[i].Union, &regions[j].Union)
				rep.Findings = append(rep.Findings, Finding{
					R1: regions[i].Region, R2: regions[j].Region, Lock: l, Cat: cat,
				})
			}
		}
	}
	return rep
}

// CompareWithDynamic fills the confusion matrix against a dynamic report:
// region pairs the dynamic analysis proved unnecessary at runtime versus
// the static view's verdicts. css are the critical sections dyn was
// identified over; its pair rows name them by index.
func (r *Report) CompareWithDynamic(dyn *ulcp.Report, css []*trace.CritSec) {
	type key struct{ a, b string }
	norm := func(x, y trace.Region) key {
		if y.Less(x) {
			x, y = y, x
		}
		return key{x.String(), y.String()}
	}
	dynULCP := make(map[key]bool)
	for _, p := range dyn.Pairs {
		if p.Cat.IsULCP() {
			dynULCP[norm(css[p.C1].Region, css[p.C2].Region)] = true
		}
	}
	for _, f := range r.Findings {
		k := norm(f.R1, f.R2)
		if f.Cat.IsULCP() {
			if dynULCP[k] {
				r.TruePositive++
			} else {
				r.FalsePositive++
			}
		} else if dynULCP[k] {
			// Static says conflict; dynamic proved unnecessary instances
			// exist — the "unrolls into ULCPs and TLCPs" case of Sec. 7.2.
			r.Missed++
		}
	}
}
