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

	"perfplay/internal/lockset"
	"perfplay/internal/topo"
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
// copies the events: the plan's columns share one array sized by the
// critical sections and the lockset members.
func Plan(css []*trace.CritSec, rep *ulcp.Report) (*Result, error) {
	g, err := topo.Build(css, rep.CausalEdges)
	if err == nil {
		_, err = g.TopoSort()
	}
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	assign := lockset.Assign(g)

	// A lockset is the node's own lock plus one per incoming edge.
	n, members := len(css), assign.NumAux+g.NumEdges()
	cols := make([]int32, 3*n+1+members)
	p := &trace.Plan{
		Acq:     cols[:n:n],
		Rel:     cols[n : 2*n : 2*n],
		Off:     cols[2*n : 3*n+1 : 3*n+1],
		Sources: cols[3*n+1:][:0],
		Locks:   make([]trace.LockID, 0, members),
	}
	res := &Result{Plan: p}
	for i, cs := range css {
		if cs.RelEv < 0 {
			return nil, fmt.Errorf("transform: %v has no release event", cs)
		}
		p.Acq[i], p.Rel[i], p.Off[i] = cs.AcqEv, cs.RelEv, int32(len(p.Locks))
		ls := assign.LS(i)
		if len(ls) == 0 {
			// Null-locks and standalone nodes: "PerfPlay removes
			// lock/unlock events of all null-locks and all standalone
			// nodes" (Sec. 3.2).
			res.RemovedSync++
			continue
		}
		res.LocksetNodes++
		p.Locks = append(p.Locks, ls...)
		for _, src := range assign.Sources[i] {
			rel := int32(-1) // the node's own lock
			if src >= 0 {
				rel = css[src].RelEv
			}
			p.Sources = append(p.Sources, rel)
		}
	}
	p.Off[n] = int32(len(p.Locks))

	// RULE 1 + RULE 2: every causal edge becomes a happens-before
	// constraint (release of the source before acquisition of the
	// target). Because mutually conflicting nodes of one lock all scan
	// each other, the transitive closure of these edges reproduces their
	// original acquisition order — which is exactly the partial order
	// RULE 2 requires (the {R1 ≺ W1 ≺ W1 ≺ W1} chain of Fig. 7 arises
	// from the edges alone). Non-conflicting causal nodes stay unordered
	// and may overlap: that is the parallelism the transformation exposes.
	// The graph's edges are distinct and every node has its own boundary
	// events, so the constraints are distinct too.
	if edges := g.Edges(); len(edges) > 0 {
		p.Constraints = make([]trace.Constraint, len(edges))
		for i, e := range edges {
			p.Constraints[i] = trace.Constraint{After: css[e.From].RelEv, Before: css[e.To].AcqEv}
		}
	}
	res.Constraints = len(p.Constraints)
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
