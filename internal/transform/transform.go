// Package transform turns a recorded trace with ULCPs into the ULCP-free
// trace of Sec. 3, applying the four rules end to end:
//
//	RULE 1 — causal edges come from the identification report (first-
//	         matched true contentions).
//	RULE 2 — the per-lock partial order of causal nodes is preserved as
//	         explicit happens-before constraints.
//	RULE 3 — causal nodes are re-synchronized with auxiliary locksets.
//	RULE 4 — mutual exclusion becomes lockset intersection, realized by
//	         the replayer acquiring all member locks atomically.
//
// The transformed trace is index-aligned with the original: every event
// keeps its global index (removed synchronization becomes a zero-cost
// no-op), so per-event timestamps from the two replays can be compared
// directly when evaluating Eq. 1.
package transform

import (
	"fmt"

	"perfplay/internal/lockset"
	"perfplay/internal/topo"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
)

// Result is the transformation outcome.
type Result struct {
	// Trace is the ULCP-free trace, index-aligned with the original.
	Trace *trace.Trace
	// Graph is the causal topology the rules were applied to.
	Graph *topo.Graph
	// Assignment is the RULE-3 lockset assignment.
	Assignment *lockset.Assignment
	// RemovedSync counts critical sections whose lock operations were
	// removed entirely (null-locks and standalone nodes).
	RemovedSync int
	// LocksetNodes counts critical sections re-synchronized by locksets.
	LocksetNodes int
	// Constraints is the number of RULE-1/RULE-2 happens-before edges
	// emitted.
	Constraints int
}

// Apply performs the transformation.
func Apply(tr *trace.Trace, css []*trace.CritSec, rep *ulcp.Report) (*Result, error) {
	g, err := topo.Build(css, rep.CausalEdges)
	if err == nil {
		_, err = g.TopoSort()
	}
	if err != nil {
		return nil, fmt.Errorf("transform: %w", err)
	}
	assign := lockset.Assign(g)

	out := &trace.Trace{
		App:        tr.App,
		NumThreads: tr.NumThreads,
		Events:     make([]trace.Event, len(tr.Events)),
		Sites:      tr.Sites,
		MemNames:   tr.MemNames,
		InitMem:    tr.InitMem,
		FinalMem:   tr.FinalMem,
		SpinLocks:  tr.SpinLocks,
		TotalTime:  tr.TotalTime,
	}
	copy(out.Events, tr.Events)
	res := &Result{Trace: out, Graph: g, Assignment: assign}
	for _, cs := range css {
		if len(assign.LS(cs.ID)) > 0 {
			res.LocksetNodes++
		}
	}
	// The extension table keeps the source's entries, so a KSkip's index
	// survives the copy, and gains an acquire and a release entry per
	// lockset node, in css order.
	out.Exts = append(make([]trace.EventExt, 0, len(tr.Exts)+2*res.LocksetNodes), tr.Exts...)
	resync := func(e *trace.Event, kind trace.Kind, x trace.EventExt) {
		out.Exts = append(out.Exts, x)
		e.Kind, e.Lock, e.Spin, e.Ext = kind, trace.NoLock, false, int32(len(out.Exts))
	}

	// One array backs every lockset's Sources; it holds as many entries
	// as the locksets have members.
	srcBuf := make([]int32, assign.NumAux+g.NumEdges())
	for _, cs := range css {
		if cs.RelEv < 0 {
			return nil, fmt.Errorf("transform: %v has no release event", cs)
		}
		ls := assign.LS(cs.ID)
		if len(ls) == 0 {
			// Null-locks and standalone nodes: remove the lock/unlock
			// events ("PerfPlay removes lock/unlock events of all
			// null-locks and all standalone nodes", Sec. 3.2). A zero-cost
			// no-op keeps event indices aligned.
			noop(&out.Events[cs.AcqEv])
			noop(&out.Events[cs.RelEv])
			res.RemovedSync++
			continue
		}
		srcs := assign.Sources[cs.ID]
		sources := srcBuf[:len(srcs):len(srcs)]
		srcBuf = srcBuf[len(srcs):]
		for i, src := range srcs {
			sources[i] = -1 // the node's own lock
			if src >= 0 {
				sources[i] = css[src].RelEv
			}
		}
		resync(&out.Events[cs.AcqEv], trace.KLocksetAcq, trace.EventExt{Locks: ls, Sources: sources})
		resync(&out.Events[cs.RelEv], trace.KLocksetRel, trace.EventExt{Locks: ls})
	}

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
		out.Constraints = make([]trace.Constraint, len(edges))
		for i, e := range edges {
			out.Constraints[i] = trace.Constraint{After: css[e.From].RelEv, Before: css[e.To].AcqEv}
		}
	}
	res.Constraints = len(out.Constraints)

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
