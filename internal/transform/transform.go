// Package transform turns a recorded trace with ULCPs into the ULCP-free
// schedule of Sec. 3, applying the four rules end to end:
//
//	RULE 1 — causal edges come from the identification report (first-
//	         matched true contentions).
//	RULE 2 — the per-lock partial order of causal nodes is preserved as
//	         explicit happens-before constraints.
//	RULE 3 — causal nodes are re-synchronized with auxiliary locksets.
//	RULE 4 — mutual exclusion becomes lockset intersection, realized by
//	         the replayer acquiring all member locks atomically.
//
// The rules run once, in Plan, and yield a trace.Plan: data about the
// recording that replay.Run steps the recording under, and that the
// Theorem 1 check and the race detector read. Apply writes the same plan
// out as a second trace; no product path asks for it. Either way the
// ULCP-free schedule is index-aligned with the original — every event
// keeps its global index (removed synchronization becomes a zero-cost
// no-op) — so per-event timestamps from the two replays can be compared
// directly when evaluating Eq. 1.
package transform

import (
	"fmt"
	"slices"

	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
)

// Result is the transformation outcome.
type Result struct {
	// Plan is the ULCP-free schedule as data about the recording: what
	// replay.Run takes beside the recording (replay.Options.Plan).
	Plan *trace.Plan
	// Trace is the plan written out as a ULCP-free trace, index-aligned
	// with the original. Apply fills it; Plan, and so every pipeline
	// run, leaves it nil.
	Trace *trace.Trace
	// RemovedSync counts critical sections whose lock operations were
	// removed entirely (null-locks and standalone nodes).
	RemovedSync int
	// LocksetNodes counts critical sections re-synchronized by locksets.
	LocksetNodes int
	// Constraints is the number of RULE-1/RULE-2 happens-before edges
	// emitted.
	Constraints int
}

// Plan applies the four rules and returns the ULCP-free schedule as a
// plan over the recording css was extracted from. Nothing here reads or
// copies the events. The rules run over int32 arrays indexed by
// CritSec.ID, which ExtractCS hands out as the dense index into css, and
// the locksets are written straight into the plan's columns, which share
// one array sized by the critical sections and the lockset members. It
// is an error for css not to be indexed by ID, for an edge to name a
// node outside it, for the edges to form a cycle, or for a section to
// have no release event.
func Plan(css []*trace.CritSec, rep *ulcp.Report) (*Result, error) {
	n, edges := len(css), rep.CausalEdges
	for i, cs := range css {
		if cs.ID != i {
			return nil, fmt.Errorf("transform: critical section at index %d has ID %d", i, cs.ID)
		}
	}
	// RULE 1: the causal graph. Out-lists sized by out-degree, duplicates
	// included, share one array: node v's is adj[start[v]:][:outdeg[v]].
	scratch := make([]int32, 4*n+1+len(edges))
	start, outdeg, indeg := scratch[:n+1], scratch[n+1:2*n+1], scratch[2*n+1:3*n+1]
	queue, adj := scratch[3*n+1:4*n+1], scratch[4*n+1:]
	for _, e := range edges {
		if uint(e.From) >= uint(n) || uint(e.To) >= uint(n) {
			return nil, fmt.Errorf("transform: edge %d->%d names a node outside [0,%d)", e.From, e.To, n)
		}
		start[e.From+1]++
	}
	for v := range n {
		start[v+1] += start[v]
	}
	// RULE 1 + RULE 2: every causal edge becomes a happens-before
	// constraint (release of the source before acquisition of the
	// target). Because mutually conflicting nodes of one lock all scan
	// each other, the transitive closure of these edges reproduces their
	// original acquisition order — which is exactly the partial order
	// RULE 2 requires (the {R1 ≺ W1 ≺ W1 ≺ W1} chain of Fig. 7 arises
	// from the edges alone). Non-conflicting causal nodes stay unordered
	// and may overlap: that is the parallelism the transformation exposes.
	// A duplicate edge is dropped, the first kept: a node's out-degree is
	// below the thread count for edges ulcp produces, so scanning its list
	// is the cheap test. Every node has its own boundary events, so the
	// constraints are distinct too.
	var cons []trace.Constraint
	if len(edges) > 0 {
		cons = make([]trace.Constraint, 0, len(edges))
	}
	for _, e := range edges {
		from, to := e.From, int32(e.To)
		if out := adj[start[from]:][:outdeg[from]]; slices.Contains(out, to) {
			continue
		}
		adj[start[from]+outdeg[from]] = to
		outdeg[from]++
		indeg[to]++
		cons = append(cons, trace.Constraint{After: css[from].RelEv, Before: css[to].AcqEv})
	}

	// RULE 3: a node with out-degree owns a fresh auxiliary lock; a
	// node's lockset is its own lock, if it has one, plus its sources'.
	// Section i's lockset is Locks[Off[i]:Off[i+1]]; until the locksets
	// are laid, Off[i+1] is where section i's next member goes.
	members := len(cons)
	for _, d := range outdeg {
		if d > 0 {
			members++
		}
	}
	cols := make([]int32, 3*n+1+members)
	p := &trace.Plan{
		Acq:         cols[:n:n],
		Rel:         cols[n : 2*n : 2*n],
		Off:         cols[2*n : 3*n+1 : 3*n+1],
		Sources:     cols[3*n+1:],
		Locks:       make([]trace.LockID, members),
		Constraints: cons,
	}
	for v := 1; v < n; v++ {
		p.Off[v+1] = p.Off[v] + indeg[v-1]
		if outdeg[v-1] > 0 {
			p.Off[v+1]++
		}
	}

	// Kahn's algorithm, for the acyclicity the causal edges promise:
	// they point forward in the original acquisition order.
	q := queue[:0]
	for v, d := range indeg {
		if d == 0 {
			q = append(q, int32(v))
		}
	}
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, to := range adj[start[v]:][:outdeg[v]] {
			if indeg[to]--; indeg[to] == 0 {
				q = append(q, to)
			}
		}
	}
	if len(q) != n {
		return nil, fmt.Errorf("transform: causal graph has a cycle (%d of %d nodes ordered)", len(q), n)
	}

	// Auxiliary locks are numbered in ascending node order, and node v's
	// lock joins v's lockset and its targets' at step v, so every lockset
	// fills in ascending lock order: sorted, with no sort.
	aux := trace.AuxLockBase
	add := func(i, src int32) {
		k := p.Off[i+1]
		p.Locks[k], p.Sources[k] = aux, src
		p.Off[i+1]++
	}
	for v := range n {
		if outdeg[v] == 0 {
			continue
		}
		aux++
		add(int32(v), -1) // the node's own lock
		for _, to := range adj[start[v]:][:outdeg[v]] {
			add(to, css[v].RelEv)
		}
	}

	res := &Result{Plan: p, Constraints: len(cons)}
	for i, cs := range css {
		if cs.RelEv < 0 {
			return nil, fmt.Errorf("transform: %v has no release event", cs)
		}
		p.Acq[i], p.Rel[i] = cs.AcqEv, cs.RelEv
		if p.Off[i] == p.Off[i+1] {
			// Null-locks and standalone nodes: "PerfPlay removes
			// lock/unlock events of all null-locks and all standalone
			// nodes" (Sec. 3.2).
			res.RemovedSync++
		} else {
			res.LocksetNodes++
		}
	}
	return res, nil
}

// Apply performs the transformation and writes the plan out as a trace.
// No product path calls it. It stays for two readers: the tests that hold
// the plan path against it (plan replay, race detection, the Theorem 1
// check), and the benchmark harness's layer pass, which still times it
// and replays its trace.
func Apply(tr *trace.Trace, css []*trace.CritSec, rep *ulcp.Report) (*Result, error) {
	res, err := Plan(css, rep)
	if err != nil {
		return nil, err
	}
	p := res.Plan
	// The extension table keeps the source's entries, so a KSkip's index
	// survives the copy, and gains an acquire and a release entry per
	// lockset node, in css order. The entries share the plan's arrays.
	out := tr.Aligned(2 * res.LocksetNodes)
	// A recording's own constraints hold under the plan as well —
	// replay.Run adds the plan's to the trace's — so they stay, first.
	out.Constraints = p.Constraints
	if len(tr.Constraints) > 0 {
		out.Constraints = slices.Concat(tr.Constraints, p.Constraints)
	}
	resync := func(e *trace.Event, kind trace.Kind, x trace.EventExt) {
		out.Exts = append(out.Exts, x)
		e.Kind, e.Lock, e.Spin, e.Ext = kind, trace.NoLock, false, int32(len(out.Exts))
	}
	for i := range p.Acq {
		acq, rel := &out.Events[p.Acq[i]], &out.Events[p.Rel[i]]
		lo, hi := p.Off[i], p.Off[i+1]
		if lo == hi {
			// A zero-cost no-op keeps event indices aligned.
			noop(acq)
			noop(rel)
			continue
		}
		locks := p.Locks[lo:hi:hi]
		resync(acq, trace.KLocksetAcq, trace.EventExt{Locks: locks, Sources: p.Sources[lo:hi:hi]})
		resync(rel, trace.KLocksetRel, trace.EventExt{Locks: locks})
	}
	res.Trace = out
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("transform: produced invalid trace: %w", err)
	}
	return res, nil
}

// noop rewrites a synchronization event into a zero-cost compute event,
// preserving thread, site and recorded timestamp so indices stay aligned.
func noop(e *trace.Event) {
	e.Kind = trace.KCompute
	e.Lock = trace.NoLock
	e.Ext = 0
	e.Cost = 0
	e.Spin = false
}
