// Package ulcp identifies and classifies unnecessary lock contention
// pairs.
//
// It implements the paper's Algorithm 1 over critical-section shadow sets
// (null-lock / read-read / disjoint-write), the RULE-1 sequential search
// that enumerates pairs and first-matched true-contention (TLCP) causal
// edges, and the reversed-replay classification that separates benign
// false conflicts from real contention (Sec. 3.1).
package ulcp

import (
	"fmt"
	"slices"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
)

// Category classifies a same-lock critical-section pair.
type Category uint8

// The paper's four ULCP categories plus true lock contention.
const (
	NullLock Category = iota
	ReadRead
	DisjointWrite
	Benign
	TLCP

	// NumCategories sizes arrays indexed by Category.
	NumCategories = iota
)

var catNames = [NumCategories]string{"null-lock", "read-read", "disjoint-write", "benign", "tlcp"}

// String names the category.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// IsULCP reports whether the category denotes an unnecessary pair.
func (c Category) IsULCP() bool { return c != TLCP }

// Pair is one classified same-lock pair as a 12-byte pointer-free row:
// C1 and C2 are CritSec.IDs — indices into the slice ExtractCS returned —
// and C1 precedes C2 in the lock's recorded acquisition order.
type Pair struct {
	C1, C2 int32
	Cat    Category
}

// Edge is a RULE-1 causal edge between critical sections (by CS ID).
type Edge struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// Options holds identification's two bounds. Every caller passes the
// zero value, which selects the defaults; the package's own tests lower
// them.
type Options struct {
	// maxScanPerThread caps the RULE-1 sequential search ahead of each
	// critical section within one peer thread. Zero selects 4096. Scans
	// cut short are tallied in Report.Truncated.
	maxScanPerThread int
	// maxReversedReplays caps full-trace reversed replays; beyond it the
	// memoized per-region verdicts are reused and unseen region pairs
	// default to TLCP (conservative). Zero selects 128.
	maxReversedReplays int
}

func (o Options) withDefaults() Options {
	if o.maxScanPerThread == 0 {
		o.maxScanPerThread = 4096
	}
	if o.maxReversedReplays == 0 {
		o.maxReversedReplays = 128
	}
	return o
}

// Report is the identification outcome.
type Report struct {
	// Pairs holds every classified pair (ULCPs and the first-matched
	// TLCPs that terminate each RULE-1 scan) as rows of critical-section
	// IDs; resolve a row through the critical sections it was identified
	// over, css[p.C1] and css[p.C2].
	Pairs []Pair
	// Counts tallies pairs per category, indexed by Category.
	Counts [NumCategories]int
	// CausalEdges are the RULE-1 first-matched TLCP edges feeding the
	// topology construction.
	CausalEdges []Edge
	// Truncated counts scans cut short by the per-thread scan bound.
	Truncated int
	// ReversedReplays counts full reversed replays performed.
	ReversedReplays int
}

// NumULCPs counts unnecessary pairs.
func (r *Report) NumULCPs() int {
	n := 0
	for c, k := range r.Counts {
		if Category(c).IsULCP() {
			n += k
		}
	}
	return n
}

// Classify implements Algorithm 1: it returns the pair's category from the
// shadow sets alone, reporting TLCP for any conflicting access (the caller
// refines conflicts into benign/TLCP with the reversed replay).
func Classify(c1, c2 *trace.CritSec) Category {
	cat, _ := classify(c1, c2, nil)
	return cat
}

// classify is Algorithm 1 as one merge over the two ascending access
// lists: an address both sections touch conflicts when either writes it.
// It appends to sig the pair's conflict signature — per conflicting
// address, in ascending order, how each side touches it, as one
// Touch<<16|Touch word (pairKey spells it out).
func classify(c1, c2 *trace.CritSec, sig []uint32) (Category, []uint32) {
	switch {
	case c1.Empty() || c2.Empty():
		return NullLock, sig
	case c1.NumWrites == 0 && c2.NumWrites == 0:
		return ReadRead, sig
	}
	cat := DisjointWrite
	a1, a2 := c1.Acc, c2.Acc
	for i, j := 0, 0; i < len(a1) && j < len(a2); {
		x, y := a1[i], a2[j]
		switch {
		case x.Addr < y.Addr:
			i++
		case x.Addr > y.Addr:
			j++
		default:
			if x.Touch.Writes() || y.Touch.Writes() {
				cat = TLCP
				sig = append(sig, uint32(x.Touch)<<16|uint32(y.Touch))
			}
			i++
			j++
		}
	}
	return cat, sig
}

// member is one critical section of the lock group being scanned, with
// its shape's number and the identifier's id for its code region.
type member struct {
	cs            *trace.CritSec
	shape, region int32
}

// sec is one scanned section as the pass keeps it for finish: its ID and
// its shape's number.
type sec struct {
	id, shape int32
}

// identifier carries the state of one identification run.
type identifier struct {
	tr   *trace.Trace
	css  []*trace.CritSec
	opts Options
	rep  *Report
	// The run's pairs until finish writes them into rep.Pairs. secs holds
	// every scanned lock group's sections, thread by thread, each
	// thread's in acquisition order; a RULE-1 scan pairs one section with
	// a contiguous stretch of one peer thread's, so it is one run. pairs
	// counts them.
	secs  []sec
	runs  []run
	pairs int
	// shapes interns the sections' shapes. byShape is the pass's category
	// table, dim × dim over the first dim shapes (dim ≤ maxShapes): entry
	// s1*dim+s2 is one more than the category of a pair whose sections
	// have shapes s1 and s2, or zero before the pass has met one. merges
	// counts classify's calls.
	shapes  shapeSet
	byShape []Category
	dim     int32
	merges  int
	// memo holds the verdict of every conflict class the run has seen;
	// benignMemo holds the verdicts the run replayed or defaulted under
	// pairKey's bytes, the wire format of VerdictTable.
	memo       classMemo
	benignMemo map[string]bool
	// table, when set, is a precomputed cross-shard verdict table
	// consulted before benignMemo; hits cost no replay.
	table *VerdictTable
	// sweep and scratch are the run's reusable replay state (see
	// sweep.go), created on the first conflicting pair.
	sweep   *prefixSweeper
	scratch *pairScratch
	// regions interns code regions; regionKey[r] is region r as pairKey
	// spells it, rendered once. sig and key are the buffers the current
	// pair's conflict signature and memo key are built in; keys counts
	// the keys built.
	regions   map[trace.Region]int32
	regionKey [][]byte
	sig       []uint32
	key       []byte
	keys      int
}

// newIdentifier starts one identification run over css with a fresh
// report and memo.
func newIdentifier(tr *trace.Trace, css []*trace.CritSec, opts Options, table *VerdictTable) *identifier {
	return &identifier{
		tr:         tr,
		css:        css,
		opts:       opts.withDefaults(),
		rep:        &Report{},
		benignMemo: make(map[string]bool),
		regions:    make(map[trace.Region]int32),
		table:      table,
	}
}

// Identify runs the full identification pass over a recorded trace.
// Locks and peer threads are visited in sorted order, so the report —
// including the reversed-replay budget's consumption order — is a
// deterministic function of (trace, critical sections, options). The
// reversed-replay budget is per trace.
func Identify(tr *trace.Trace, css []*trace.CritSec, opts Options) *Report {
	_, rep := BuildVerdictTable(tr, css, opts)
	return rep
}

// IdentifyWithVerdicts is Identify's walk against a verdict table built
// over the same trace and options (see BuildVerdictTable): every
// conflicting class reuses the table's verdict, so the walk replays
// nothing and reproduces the build pass's report pair for pair. Its
// ReversedReplays are the table's, the replays the report cost when
// the table was built.
func IdentifyWithVerdicts(tr *trace.Trace, css []*trace.CritSec, opts Options, table *VerdictTable) *Report {
	rep := newIdentifier(tr, css, opts, table).run()
	rep.ReversedReplays += table.Replays
	return rep
}

// IdentifyShardWithVerdicts runs identification over a single lock's
// critical sections (one group of SortedLockGroups) against a
// precomputed verdict table (see BuildVerdictTable): conflicting pairs
// whose region-pair class is in the table reuse its verdict without a
// replay, so shards sharing one table — across goroutines or across
// nodes — stop re-paying the O(events) prefix walk for classes that
// recur under many locks. Classes absent from the table (a table built
// over different groups, or a nil table) fall back to a shard-local
// memo and budget. With a table built over the same sorted lock groups
// and options, shards perform zero replays and the merged
// classification is a pure function of (trace, groups, options,
// table); merging in sorted lock order with MergeReports reproduces
// Identify's pair order. Exported only because bench/layers.go calls
// it; the pipeline runs IdentifyWithVerdicts.
func IdentifyShardWithVerdicts(tr *trace.Trace, lockCSs []*trace.CritSec, opts Options, table *VerdictTable) *Report {
	id := newIdentifier(tr, lockCSs, opts, table)
	id.runLock(lockCSs)
	return id.finish()
}

// SortedLockGroups returns CSByLock's groups in ascending lock order:
// the order Identify's walk visits them and the shard decomposition of
// IdentifyShardWithVerdicts. Exported only because bench/layers.go
// calls it.
func SortedLockGroups(css []*trace.CritSec) [][]*trace.CritSec {
	byLock := trace.CSByLock(css)
	locks := make([]trace.LockID, 0, len(byLock))
	for l := range byLock {
		locks = append(locks, l)
	}
	slices.Sort(locks)
	groups := make([][]*trace.CritSec, len(locks))
	for i, l := range locks {
		groups[i] = byLock[l]
	}
	return groups
}

// MergeReports combines shard reports in call order into one report.
// Exported only because bench/layers.go calls it.
func MergeReports(reports ...*Report) *Report {
	out := &Report{}
	pairs, edges := 0, 0
	for _, r := range reports {
		if r != nil {
			pairs += len(r.Pairs)
			edges += len(r.CausalEdges)
		}
	}
	// Sized only when non-empty: an empty merge keeps the nil slices
	// Identify's report has.
	if pairs > 0 {
		out.Pairs = make([]Pair, 0, pairs)
	}
	if edges > 0 {
		out.CausalEdges = make([]Edge, 0, edges)
	}
	for _, r := range reports {
		if r == nil {
			continue
		}
		out.Pairs = append(out.Pairs, r.Pairs...)
		out.CausalEdges = append(out.CausalEdges, r.CausalEdges...)
		for c, n := range r.Counts {
			out.Counts[c] += n
		}
		out.Truncated += r.Truncated
		out.ReversedReplays += r.ReversedReplays
	}
	return out
}

// run is the pairs of one RULE-1 scan: section secs[at] against the n
// sections secs[off:off+n], in the order the scan visited them.
type run struct {
	at, off, n int32
}

// run scans every lock group in ascending lock order and returns the
// finished report. The sections are sized once, for every group with
// two threads, and the runs and causal edges once, for the most the
// groups can yield, so no group grows them.
func (id *identifier) run() *Report {
	groups := SortedLockGroups(id.css)
	secs, scans := 0, 0
	for _, g := range groups {
		if n := maxScans(g); n > 0 {
			secs += len(g)
			scans += n
		}
	}
	if scans > 0 {
		id.secs = make([]sec, 0, secs)
		id.runs = make([]run, 0, scans)
		id.rep.CausalEdges = make([]Edge, 0, scans)
	}
	for _, g := range groups {
		id.runLock(g)
	}
	return id.finish()
}

// maxScans bounds the RULE-1 scans a lock group runs, and so its runs and
// causal edges: one per section and other thread that holds the lock,
// and each scan ends at its first edge.
func maxScans(group []*trace.CritSec) int {
	_, _, active := threadCounts(group)
	return len(group) * (active - 1)
}

// threadCounts counts a lock group's sections per thread, and the
// threads that have any. start[t] is where thread t's sections begin
// when the group is laid out thread by thread, and start[threads] is the
// group's length; the two arrays share one allocation.
func threadCounts(group []*trace.CritSec) (counts, start []int32, active int) {
	threads := 0
	for _, cs := range group {
		threads = max(threads, int(cs.Thread)+1)
	}
	buf := make([]int32, 2*threads+1)
	counts, start = buf[:threads], buf[threads:]
	for _, cs := range group {
		if counts[cs.Thread] == 0 {
			active++
		}
		counts[cs.Thread]++
	}
	for t, n := range counts {
		start[t+1] = start[t] + n
	}
	return counts, start, active
}

// finish writes the run's pairs into the report, once, at their exact
// number, and returns it: each row's category is its shape pair's entry
// of the category table, or, for a shape past it, classified again from
// the shapes' first sections, whose class the memo already holds. A run
// without pairs keeps the nil slice MergeReports gives an empty merge.
func (id *identifier) finish() *Report {
	if id.pairs == 0 {
		return id.rep
	}
	pairs := make([]Pair, id.pairs)
	i := 0
	for _, r := range id.runs {
		c1 := id.secs[r.at]
		row := id.row(c1.shape)
		for _, c2 := range id.secs[r.off : r.off+r.n] {
			var cat Category
			if c2.shape < int32(len(row)) {
				cat = row[c2.shape] - 1
			} else {
				cat = id.category(id.shapeMember(c1.shape), id.shapeMember(c2.shape))
			}
			pairs[i] = Pair{C1: c1.id, C2: c2.id, Cat: cat}
			i++
		}
	}
	id.rep.Pairs = pairs
	return id.rep
}

// row returns shape s's row of the category table, or nil for a shape
// past it.
func (id *identifier) row(s int32) []Category {
	if s >= id.dim {
		return nil
	}
	return id.byShape[s*id.dim : (s+1)*id.dim]
}

// shapeMember returns shape s's first section as a member.
func (id *identifier) shapeMember(s int32) member {
	sh := &id.shapes.list[s]
	return member{cs: sh.cs, shape: s, region: sh.region}
}

// growTable widens the category table to cover the pass's first n
// shapes, n ≤ maxShapes: to at least twice its width, at most maxShapes,
// keeping every entry.
func (id *identifier) growTable(n int32) {
	dim := min(maxShapes, max(n, 2*id.dim))
	t := make([]Category, dim*dim)
	for s := range id.dim {
		copy(t[s*dim:], id.byShape[s*id.dim:(s+1)*id.dim])
	}
	id.byShape, id.dim = t, dim
}

// runLock scans one lock's critical sections: per thread in acquisition
// order, with peer threads visited in ascending order.
func (id *identifier) runLock(lockCSs []*trace.CritSec) {
	next, start, active := threadCounts(lockCSs)
	if active < 2 {
		return // single-thread lock: no cross-thread pairs
	}
	// Thread t's sections are members[start[t]:start[t+1]], in acquisition
	// order, and sit at the same offsets of secs. next[t] walks
	// them, twice: while a section is scanned, thread t's sections after it
	// begin at start[t]+next[t], and each peer's cursor only moves forward.
	clear(next)
	scans := len(lockCSs) * (active - 1)
	if id.runs == nil {
		// A shard's walk: its one group sizes what run sizes for all of
		// its groups.
		id.secs = make([]sec, 0, len(lockCSs))
		id.runs = make([]run, 0, scans)
		id.rep.CausalEdges = make([]Edge, 0, scans)
	}
	members := make([]member, len(lockCSs))
	base := int32(len(id.secs))
	id.secs = id.secs[:int(base)+len(lockCSs)]
	secs := id.secs[base:]
	for _, cs := range lockCSs {
		i := start[cs.Thread] + next[cs.Thread]
		next[cs.Thread]++
		s, fresh := id.shapes.intern(cs)
		if fresh {
			id.shapes.list[s].region = id.intern(cs.Region)
		}
		members[i] = member{cs, s, id.shapes.list[s].region}
		secs[i] = sec{int32(cs.ID), s}
	}
	if n := min(int32(len(id.shapes.list)), maxShapes); n > id.dim {
		id.growTable(n)
	}
	clear(next)
	for _, cs := range lockCSs {
		th := cs.Thread
		at := start[th] + next[th]
		next[th]++
		for t := range next {
			if lo, hi := start[t]+next[t], start[t+1]; int32(t) != th && lo < hi {
				id.scan(members[at], base+at, members[lo:hi], base+lo)
			}
		}
	}
}

// intern returns the identifier's id for a code region.
func (id *identifier) intern(r trace.Region) int32 {
	if x, ok := id.regions[r]; ok {
		return x
	}
	x := int32(len(id.regionKey))
	id.regions[r] = x
	id.regionKey = append(id.regionKey, []byte(r.String()+"|"))
	return x
}

// scan performs the RULE-1 sequential search: walk the peer thread's
// critical sections after cur (cur sits at secs[at]; peer, in the lock's
// acquisition order, begins at secs[off]), classify each pair, and stop
// at the first true contention (which becomes a causal edge). A pair's
// category comes from the category table; only a shape pair's first
// pair is classified.
func (id *identifier) scan(cur member, at int32, peer []member, off int32) {
	row := id.row(cur.shape)
	n := 0
	for _, p := range peer {
		if n == id.opts.maxScanPerThread {
			id.rep.Truncated++
			break
		}
		n++
		var cat Category
		if p.shape < int32(len(row)) {
			if row[p.shape] == 0 {
				row[p.shape] = id.category(cur, p) + 1
			}
			cat = row[p.shape] - 1
		} else {
			cat = id.category(cur, p)
		}
		id.rep.Counts[cat]++
		if cat == TLCP {
			// Matched: first true contention establishes the causal edge
			// and ends this thread's scan (RULE 1).
			id.rep.CausalEdges = append(id.rep.CausalEdges, Edge{From: int32(cur.cs.ID), To: int32(p.cs.ID)})
			break
		}
	}
	if n > 0 {
		id.runs = append(id.runs, run{at: at, off: off, n: int32(n)})
		id.pairs += n
	}
}

// category classifies a pair: Algorithm 1, and the class's verdict for a
// conflict.
func (id *identifier) category(c1, c2 member) Category {
	id.merges++
	var cat Category
	cat, id.sig = classify(c1.cs, c2.cs, id.sig[:0])
	if cat == TLCP && id.benign(c1, c2) {
		cat = Benign
	}
	return cat
}

// benign decides whether a conflicting pair is a benign ULCP by replaying
// the trace with the two critical sections' enforced order reversed and
// comparing final memory states (the reversed-replay extension of
// Narayanasamy et al. the paper adopts). Verdicts are memoized per
// conflict class — the two code regions and the conflict signature
// classify has left in id.sig — and a class the run has seen costs only
// the memo probe.
func (id *identifier) benign(c1, c2 member) bool {
	h := hashClass(c1.region, c2.region, id.sig)
	if v, ok := id.memo.get(h, c1.region, c2.region, id.sig); ok {
		return v
	}
	v := id.verdict(c1, c2)
	id.memo.put(h, c1.region, c2.region, id.sig, v)
	return v
}

// verdict resolves a class the run has not seen under pairKey's bytes:
// the shared table's verdict, or the one memoised under the same bytes,
// or else a reversed replay; once the replay budget is exhausted, unseen
// classes conservatively classify as true contention.
func (id *identifier) verdict(c1, c2 member) bool {
	// key aliases the identifier's scratch buffer: lookups convert it in
	// place (no allocation), and only a newly memoized class pays for a
	// string of its own.
	key := id.pairKey(c1.region, c2.region)
	if id.table != nil {
		if v, ok := id.table.Verdicts[string(key)]; ok {
			return v
		}
	}
	if v, ok := id.benignMemo[string(key)]; ok {
		return v
	}
	if id.rep.ReversedReplays >= id.opts.maxReversedReplays {
		id.benignMemo[string(key)] = false
		return false
	}
	id.rep.ReversedReplays++
	v := id.reversedReplayEqual(c1.cs, c2.cs)
	id.benignMemo[string(key)] = v
	return v
}

// pairOutcome is the observable result of executing the two critical
// sections in one order: the values every read observed (c1's reads then
// c2's reads when called as (c1,c2)) and the final values of all touched
// cells (including cells restored by skip deltas inside the sections).
type pairOutcome struct {
	reads  []int64
	writes map[memmodel.Addr]int64
}
