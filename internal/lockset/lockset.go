// Package lockset implements the auxiliary-lock re-synchronization of
// RULE 3 and the lockset mutual-exclusion relation of RULE 4.
//
// Each causal node with outgoing edges is granted a fresh auxiliary lock
// ("@L" in Fig. 8); each node with incoming edges inherits the auxiliary
// locks of its source nodes. Two critical sections are mutually exclusive
// iff their locksets intersect. The dynamic locking strategy (Fig. 9) is
// carried through to replay as per-member source release events: a source
// whose END flag is set at runtime contributes no lock.
package lockset

import (
	"sort"

	"perfplay/internal/topo"
	"perfplay/internal/trace"
)

// Set is a sorted set of lock IDs — a critical section's lockset LS.
type Set []trace.LockID

// NewSet builds a sorted set from locks.
func NewSet(locks ...trace.LockID) Set {
	s := append(Set(nil), locks...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// Contains reports membership.
func (s Set) Contains(l trace.LockID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= l })
	return i < len(s) && s[i] == l
}

// Intersects implements RULE 4's test: the pair is mutually exclusive iff
// the intersection is non-empty.
func (s Set) Intersects(o Set) bool {
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] == o[j]:
			return true
		case s[i] < o[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// MutuallyExclusive is RULE 4 spelled out: two critical sections exclude
// each other iff their locksets share a lock.
func MutuallyExclusive(a, b Set) bool { return a.Intersects(b) }

// Assignment is the RULE-3 outcome: the lockset of every causal node,
// with per-member provenance for the dynamic locking strategy. Its
// slices are indexed by node ID (CritSec.ID) and span every node of the
// graph.
type Assignment struct {
	// Own is a node's fresh auxiliary lock; trace.NoLock for a node
	// without out-degree.
	Own []trace.LockID
	// Sets holds the locksets, sorted; nil for standalone nodes.
	Sets []Set
	// Sources parallels Sets: Sources[id][i] is the source node whose own
	// lock is Sets[id][i], or -1 when the lock is the node's own.
	Sources [][]int
	// NumAux is the count of auxiliary locks allocated.
	NumAux int
}

// Assign performs the RULE-3 re-synchronization over the ULCP-free
// topology: fresh lock per out-degree node, inherited source locks per
// in-degree node. Standalone nodes receive empty locksets (their lock
// operations will be removed).
func Assign(g *topo.Graph) *Assignment {
	n := g.NumNodes()
	a := &Assignment{
		Own:     make([]trace.LockID, n),
		Sets:    make([]Set, n),
		Sources: make([][]int, n),
	}
	// Deterministic allocation: walk causal nodes in ascending ID order.
	for _, id := range g.CausalNodes() {
		if g.OutDeg(id) > 0 {
			a.NumAux++
			a.Own[id] = trace.AuxLockBase + trace.LockID(a.NumAux)
		}
	}
	// A lockset is the node's own lock plus one lock per incoming edge
	// (every source has out-degree, hence a lock), so all of them fit two
	// arrays of known size.
	locks, srcs := make(Set, a.NumAux+g.NumEdges()), make([]int, a.NumAux+g.NumEdges())
	for _, id := range g.CausalNodes() {
		set, from := locks[:0], srcs[:0]
		if a.Own[id] != trace.NoLock {
			set, from = append(set, a.Own[id]), append(from, -1)
		}
		for _, src := range g.Sources(id) {
			set, from = append(set, a.Own[src]), append(from, src)
		}
		m := len(set)
		locks, srcs = locks[m:], srcs[m:]
		// Sort both by lock; a handful of members, so by insertion.
		for i := 1; i < m; i++ {
			for j := i; j > 0 && set[j] < set[j-1]; j-- {
				set[j], set[j-1] = set[j-1], set[j]
				from[j], from[j-1] = from[j-1], from[j]
			}
		}
		a.Sets[id], a.Sources[id] = set[:m:m], from[:m:m] // an append must not reach the next node's
	}
	return a
}

// LS returns the lockset of a node (empty for standalone nodes and for
// IDs outside the graph).
func (a *Assignment) LS(id int) Set {
	if uint(id) >= uint(len(a.Sets)) {
		return nil
	}
	return a.Sets[id]
}
