package ulcp

import (
	"fmt"

	"perfplay/internal/trace"
)

// WirePair is a classified pair with its critical sections referenced
// by CS ID instead of by pointer, for cross-node transport. ExtractCS
// assigns IDs deterministically from the trace bytes, so two nodes
// holding the same trace agree on every ID.
type WirePair struct {
	C1  int      `json:"c1"`
	C2  int      `json:"c2"`
	Cat Category `json:"cat"`
}

// WireReport is a Report flattened for JSON transport between nodes.
// Counts are not carried — they are a pure tally of Pairs and are
// rebuilt on rehydration, so the wire format cannot go self-
// inconsistent.
type WireReport struct {
	Pairs           []WirePair `json:"pairs"`
	CausalEdges     []Edge     `json:"causal_edges,omitempty"`
	Truncated       int        `json:"truncated,omitempty"`
	ReversedReplays int        `json:"reversed_replays,omitempty"`
}

// Wire flattens a report for transport.
func (r *Report) Wire() *WireReport {
	w := &WireReport{
		CausalEdges:     r.CausalEdges,
		Truncated:       r.Truncated,
		ReversedReplays: r.ReversedReplays,
	}
	w.Pairs = make([]WirePair, len(r.Pairs))
	for i, p := range r.Pairs {
		w.Pairs[i] = WirePair{C1: p.C1.ID, C2: p.C2.ID, Cat: p.Cat}
	}
	return w
}

// Tally rebuilds the per-category counts from the wire pairs — the same
// Counts a rehydrated report carries, computable without the receiver's
// critical sections. A category no node produces (the wire is peer
// input) is not tallied; Rehydrate refuses such a report.
func (w *WireReport) Tally() (counts [NumCategories]int) {
	for _, p := range w.Pairs {
		if p.Cat >= 0 && p.Cat < NumCategories {
			counts[p.Cat]++
		}
	}
	return counts
}

// NumULCPs counts the wire report's unnecessary pairs. Cluster cache
// importers use it to summarize a remotely-computed report they will
// never rehydrate (they hold the digest, not the parsed trace).
func (w *WireReport) NumULCPs() int {
	n := 0
	for _, p := range w.Pairs {
		if p.Cat.IsULCP() {
			n++
		}
	}
	return n
}

// CSByID indexes critical sections by ID for Rehydrate.
func CSByID(css []*trace.CritSec) map[int]*trace.CritSec {
	byID := make(map[int]*trace.CritSec, len(css))
	for _, cs := range css {
		byID[cs.ID] = cs
	}
	return byID
}

// Rehydrate rebuilds a full report from its wire form against the
// receiver's own critical sections (see CSByID). An ID the receiver
// does not know means the two sides analyzed different traces — that is
// an error, never a silent drop — and so is a category outside the five.
func (w *WireReport) Rehydrate(byID map[int]*trace.CritSec) (*Report, error) {
	r := &Report{
		CausalEdges:     w.CausalEdges,
		Truncated:       w.Truncated,
		ReversedReplays: w.ReversedReplays,
	}
	r.Pairs = make([]Pair, len(w.Pairs))
	for i, p := range w.Pairs {
		c1, ok1 := byID[p.C1]
		c2, ok2 := byID[p.C2]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("ulcp: wire pair references unknown critical section (%d, %d)", p.C1, p.C2)
		}
		if p.Cat < 0 || p.Cat >= NumCategories {
			return nil, fmt.Errorf("ulcp: wire pair (%d, %d) has unknown category %d", p.C1, p.C2, int(p.Cat))
		}
		r.Pairs[i] = Pair{C1: c1, C2: c2, Cat: p.Cat}
		r.Counts[p.Cat]++
	}
	return r, nil
}
