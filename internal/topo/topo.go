// Package topo builds and analyzes the causal-order topology of Sec. 3:
// nodes are critical sections, causal edges are the RULE-1 first-matched
// true-contention dependencies, and RULE 2 derives the per-lock partial
// order that must survive into the ULCP-free trace.
package topo

import (
	"fmt"
	"slices"
	"sort"

	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
)

// Graph is the causal-order topology over critical sections. Node IDs are
// CritSec.ID values, which extraction hands out as the dense indices
// 0..n-1 of css; the adjacency lists are indexed by them.
type Graph struct {
	css     []*trace.CritSec
	out, in [][]int
	edges   []ulcp.Edge
	causal  []int
}

// Build constructs the ULCP-free topology from the identification report's
// causal edges (RULE 1 already filtered out non-causal ULCP relations).
// Duplicate edges are dropped, first occurrence kept. It is an error for
// css not to be indexed by ID or for an edge to name a node outside it.
func Build(css []*trace.CritSec, edges []ulcp.Edge) (*Graph, error) {
	n := len(css)
	for i, cs := range css {
		if cs.ID != i {
			return nil, fmt.Errorf("topo: critical section at index %d has ID %d", i, cs.ID)
		}
	}
	// Degrees, duplicates included, size every adjacency list inside one
	// array: out-degree of id at deg[id], in-degree at deg[n+id].
	deg := make([]int, 2*n)
	for _, e := range edges {
		if uint(e.From) >= uint(n) || uint(e.To) >= uint(n) {
			return nil, fmt.Errorf("topo: edge %d->%d names a node outside [0,%d)", e.From, e.To, n)
		}
		deg[e.From]++
		deg[n+e.To]++
	}
	adj, buf := make([][]int, 2*n), make([]int, 2*len(edges))
	for i, d := range deg {
		adj[i], buf = buf[:0:d], buf[d:]
	}
	g := &Graph{css: css, out: adj[:n], in: adj[n:], edges: make([]ulcp.Edge, 0, len(edges))}
	for _, e := range edges {
		// A node's out-degree is below the thread count for edges ulcp
		// produces, so scanning its list is the cheap duplicate test.
		if slices.Contains(g.out[e.From], e.To) {
			continue
		}
		g.edges = append(g.edges, e)
		g.out[e.From] = append(g.out[e.From], e.To)
		g.in[e.To] = append(g.in[e.To], e.From)
	}
	g.causal = make([]int, 0, min(n, 2*len(g.edges)))
	for id := range css {
		if !g.Standalone(id) {
			g.causal = append(g.causal, id)
		}
	}
	return g, nil
}

// NumNodes returns the node count (all critical sections).
func (g *Graph) NumNodes() int { return len(g.css) }

// NumEdges returns the causal-edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the deduplicated causal edges.
func (g *Graph) Edges() []ulcp.Edge { return g.edges }

// OutDeg returns the out-degree of a node.
func (g *Graph) OutDeg(id int) int { return len(g.Targets(id)) }

// InDeg returns the in-degree of a node.
func (g *Graph) InDeg(id int) int { return len(g.Sources(id)) }

// Sources returns the causal predecessors of a node.
func (g *Graph) Sources(id int) []int { return list(g.in, id) }

// Targets returns the causal successors of a node.
func (g *Graph) Targets(id int) []int { return list(g.out, id) }

// list is adj[id], or nothing for an ID outside the graph.
func list(adj [][]int, id int) []int {
	if uint(id) >= uint(len(adj)) {
		return nil
	}
	return adj[id]
}

// Standalone reports whether the node participates in no causal edge;
// PerfPlay removes the lock operations of such nodes entirely (Sec. 3.2).
func (g *Graph) Standalone(id int) bool {
	return g.OutDeg(id) == 0 && g.InDeg(id) == 0
}

// CausalNodes returns the IDs of nodes with at least one causal edge, in
// ascending order. Callers must not mutate it.
func (g *Graph) CausalNodes() []int { return g.causal }

// TopoSort returns the nodes in a topological order of the causal edges,
// or an error if the edges contain a cycle (which would indicate a RULE-1
// construction bug, since causal edges always point forward in the
// original acquisition order).
func (g *Graph) TopoSort() ([]int, error) {
	n := len(g.css)
	indeg := make([]int, n)
	// order doubles as the FIFO work queue: everything from head on is
	// ordered but not yet expanded.
	order := make([]int, 0, n)
	for id := range indeg {
		if indeg[id] = len(g.in[id]); indeg[id] == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, m := range g.out[order[head]] {
			indeg[m]--
			if indeg[m] == 0 {
				order = append(order, m)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("topo: causal graph has a cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// Rule2Chains computes, for every original lock, the causal nodes of that
// lock in the original acquisition order. RULE 2 requires the transformed
// trace to preserve exactly this partial order, which the transformation
// realizes as happens-before constraints between consecutive chain
// elements.
func (g *Graph) Rule2Chains() map[trace.LockID][]*trace.CritSec {
	chains := make(map[trace.LockID][]*trace.CritSec)
	for _, id := range g.causal {
		chains[g.css[id].Lock] = append(chains[g.css[id].Lock], g.css[id])
	}
	for _, chain := range chains {
		sort.Slice(chain, func(i, j int) bool { return chain[i].SeqInLock < chain[j].SeqInLock })
	}
	return chains
}

// CS returns the critical section with the given node ID. Extraction
// assigns IDs densely in order, so this is a direct index.
func (g *Graph) CS(id int) *trace.CritSec {
	if id < 0 || id >= len(g.css) {
		return nil
	}
	return g.css[id]
}
