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
type Category int

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

// Pair is one classified same-lock pair as a pointer-free row: C1 and C2
// are CritSec.IDs — indices into the slice ExtractCS returned — and C1
// precedes C2 in the lock's recorded acquisition order.
type Pair struct {
	C1, C2 int32
	Cat    Category
}

// Edge is a RULE-1 causal edge between critical sections (by CS ID).
type Edge struct {
	From int `json:"from"`
	To   int `json:"to"`
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
// the identifier's id for its code region.
type member struct {
	cs     *trace.CritSec
	region int32
}

// identifier carries the state of one identification run.
type identifier struct {
	tr   *trace.Trace
	css  []*trace.CritSec
	opts Options
	rep  *Report
	// chunks holds the run's pair rows until finish copies them into
	// rep.Pairs, and pairs counts them. See addPair.
	chunks [][]Pair
	pairs  int
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

// run scans every lock group in ascending lock order and returns the
// finished report. The causal edges are sized once, for the most the
// groups can yield.
func (id *identifier) run() *Report {
	groups := SortedLockGroups(id.css)
	edges := 0
	for _, g := range groups {
		edges += maxEdges(g)
	}
	if edges > 0 {
		id.rep.CausalEdges = make([]Edge, 0, edges)
	}
	for _, g := range groups {
		id.runLock(g)
	}
	return id.finish()
}

// maxEdges bounds the causal edges a lock group yields: RULE 1 ends each
// (section, peer thread) scan at its first edge, so a section has at most
// one per other thread that holds the lock.
func maxEdges(group []*trace.CritSec) int {
	_, active := threadCounts(group)
	return len(group) * (active - 1)
}

// threadCounts counts a lock group's sections per thread, and the
// threads that have any.
func threadCounts(group []*trace.CritSec) (counts []int, active int) {
	threads := 0
	for _, cs := range group {
		threads = max(threads, int(cs.Thread)+1)
	}
	counts = make([]int, threads)
	for _, cs := range group {
		if counts[cs.Thread] == 0 {
			active++
		}
		counts[cs.Thread]++
	}
	return counts, active
}

// maxPairChunk bounds a chunk of pair rows (128 KiB).
const maxPairChunk = 8192

// addPair appends one row to the run's pairs. Rows collect in chunks —
// the first with room for one row per critical section of the run, each
// next one as large as everything before it, up to maxPairChunk — and
// finish copies them once into an array of exactly their number: an
// array grown by append is copied at every quarter once it is large,
// each time onto fresh pages.
func (id *identifier) addPair(p Pair) {
	n := len(id.chunks)
	if n == 0 || len(id.chunks[n-1]) == cap(id.chunks[n-1]) {
		if n == 0 {
			id.chunks = make([][]Pair, 0, 16)
		}
		id.chunks = append(id.chunks, make([]Pair, 0, min(max(id.pairs, len(id.css), 64), maxPairChunk)))
		n++
	}
	id.chunks[n-1] = append(id.chunks[n-1], p)
	id.pairs++
}

// finish copies the run's pair rows into the report and returns it. A
// run without pairs keeps the nil slice MergeReports gives an empty
// merge.
func (id *identifier) finish() *Report {
	if id.pairs > 0 {
		id.rep.Pairs = make([]Pair, 0, id.pairs)
		for _, c := range id.chunks {
			id.rep.Pairs = append(id.rep.Pairs, c...)
		}
	}
	return id.rep
}

// runLock scans one lock's critical sections: per thread in acquisition
// order, with peer threads visited in ascending order.
func (id *identifier) runLock(lockCSs []*trace.CritSec) {
	// next[t] counts thread t's sections, then walks them: the group is
	// in acquisition order, so while a section is scanned, thread t's
	// sections after it are perThread[t][next[t]:], and each peer's
	// cursor only moves forward.
	next, active := threadCounts(lockCSs)
	if active < 2 {
		return // single-thread lock: no cross-thread pairs
	}
	members := make([]member, len(lockCSs))
	perThread := make([][]member, len(next))
	off := 0
	for t, n := range next {
		perThread[t] = members[off : off : off+n]
		off += n
		next[t] = 0
	}
	for _, cs := range lockCSs {
		perThread[cs.Thread] = append(perThread[cs.Thread], member{cs, id.intern(cs.Region)})
	}
	id.rep.CausalEdges = slices.Grow(id.rep.CausalEdges, len(lockCSs)*(active-1))
	for _, cs := range lockCSs {
		cur := perThread[cs.Thread][next[cs.Thread]]
		next[cs.Thread]++
		for t, peer := range perThread {
			if int32(t) != cs.Thread && len(peer) > 0 {
				id.scan(cur, peer[next[t]:])
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
// critical sections after cur (peer, in the lock's acquisition order),
// classify each pair, and stop at the first true contention (which
// becomes a causal edge).
func (id *identifier) scan(cur member, peer []member) {
	steps := 0
	for _, p := range peer {
		steps++
		if steps > id.opts.maxScanPerThread {
			id.rep.Truncated++
			return
		}
		var cat Category
		cat, id.sig = classify(cur.cs, p.cs, id.sig[:0])
		if cat == TLCP && id.benign(cur, p) {
			cat = Benign
		}
		id.addPair(Pair{C1: int32(cur.cs.ID), C2: int32(p.cs.ID), Cat: cat})
		id.rep.Counts[cat]++
		if cat == TLCP {
			// Matched: first true contention establishes the causal edge
			// and ends this thread's scan (RULE 1).
			id.rep.CausalEdges = append(id.rep.CausalEdges, Edge{From: cur.cs.ID, To: p.cs.ID})
			return
		}
	}
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
