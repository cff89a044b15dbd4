package topo

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// mkCS builds a minimal critical section for graph tests.
func mkCS(id int, thread int32, lock trace.LockID, seq int) *trace.CritSec {
	return &trace.CritSec{ID: id, Thread: thread, Lock: lock, SeqInLock: seq,
		AcqEv: int32(id * 2), RelEv: int32(id*2 + 1)}
}

// fig7 builds the paper's Fig. 7 example: R1(T1), R2(T2), W1(T2),
// W1st(T3), W2nd(T3), R2(T1) with causal edges
// R1→W1(T2), R1→W1st(T3), W1st→W1(T2), W1(T2)→W2nd.
func fig7() ([]*trace.CritSec, []ulcp.Edge) {
	l := trace.LockID(1)
	css := []*trace.CritSec{
		mkCS(0, 0, l, 0), // R1 in T1
		mkCS(1, 2, l, 1), // W1st in T3
		mkCS(2, 1, l, 2), // W1 in T2
		mkCS(3, 2, l, 3), // W2nd in T3
		mkCS(4, 1, l, 4), // R2 in T2 (standalone)
		mkCS(5, 0, l, 5), // R2 in T1 (standalone)
	}
	edges := []ulcp.Edge{
		{From: 0, To: 2}, {From: 0, To: 1},
		{From: 1, To: 2}, {From: 2, To: 3},
	}
	return css, edges
}

// mustBuild is Build for inputs the test knows are well formed.
func mustBuild(t *testing.T, css []*trace.CritSec, edges []ulcp.Edge) *Graph {
	t.Helper()
	g, err := Build(css, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildFig7(t *testing.T) {
	css, edges := fig7()
	g := mustBuild(t, css, edges)
	if g.NumNodes() != 6 {
		t.Fatalf("nodes = %d, want 6", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	// R1 has outdegree 2 (RULE 3 gives it an auxiliary lock).
	if g.OutDeg(0) != 2 {
		t.Errorf("outdeg(R1) = %d, want 2", g.OutDeg(0))
	}
	// W1 in T2 has indegree 2 (from R1 and W1st).
	if g.InDeg(2) != 2 {
		t.Errorf("indeg(W1-T2) = %d, want 2", g.InDeg(2))
	}
	// The two R2 nodes are standalone — their locks get removed.
	if !g.Standalone(4) || !g.Standalone(5) {
		t.Error("R2 nodes must be standalone")
	}
	if g.Standalone(0) {
		t.Error("R1 is causal, not standalone")
	}
	causal := g.CausalNodes()
	if len(causal) != 4 {
		t.Fatalf("causal nodes = %v, want 4 entries", causal)
	}
}

func TestBuildDeduplicatesEdges(t *testing.T) {
	css, _ := fig7()
	g := mustBuild(t, css, []ulcp.Edge{{From: 0, To: 2}, {From: 0, To: 2}})
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestTopoSortAcyclic(t *testing.T) {
	css, edges := fig7()
	g := mustBuild(t, css, edges)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range edges {
		if pos[e.From] >= pos[e.To] {
			t.Errorf("edge %v violated by topo order", e)
		}
	}
}

func TestTopoSortDetectsCycle(t *testing.T) {
	css, _ := fig7()
	g := mustBuild(t, css, []ulcp.Edge{{From: 0, To: 2}, {From: 2, To: 0}})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestRule2ChainsOrderedBySeq(t *testing.T) {
	css, edges := fig7()
	g := mustBuild(t, css, edges)
	chains := g.Rule2Chains()
	chain := chains[trace.LockID(1)]
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4 causal nodes", len(chain))
	}
	// The paper's partial order: R1 ≺ W1st(T3) ≺ W1(T2) ≺ W2nd(T3).
	want := []int{0, 1, 2, 3}
	for i, cs := range chain {
		if cs.ID != want[i] {
			t.Fatalf("chain[%d] = CS %d, want %d", i, cs.ID, want[i])
		}
	}
}

func TestSourcesAndTargets(t *testing.T) {
	css, edges := fig7()
	g := mustBuild(t, css, edges)
	if srcs := g.Sources(2); len(srcs) != 2 {
		t.Errorf("sources(W1-T2) = %v, want 2", srcs)
	}
	if tgts := g.Targets(0); len(tgts) != 2 {
		t.Errorf("targets(R1) = %v, want 2", tgts)
	}
	if g.CS(3) == nil || g.CS(3).ID != 3 {
		t.Error("CS lookup broken")
	}
	if g.CS(99) != nil {
		t.Error("out-of-range CS lookup should be nil")
	}
}

// refGraph is the map-keyed topology Build produced before the adjacency
// lists became slices indexed by CritSec.ID; the tests below hold the
// slice code to it on every workload's real causal edges.
type refGraph struct {
	out, in map[int][]int
	edges   []ulcp.Edge
}

func buildRef(edges []ulcp.Edge) *refGraph {
	g := &refGraph{out: make(map[int][]int), in: make(map[int][]int)}
	seen := make(map[ulcp.Edge]bool, len(edges))
	for _, e := range edges {
		if seen[e] {
			continue
		}
		seen[e] = true
		g.edges = append(g.edges, e)
		g.out[e.From] = append(g.out[e.From], e.To)
		g.in[e.To] = append(g.in[e.To], e.From)
	}
	return g
}

func (g *refGraph) causalNodes() []int {
	set := make(map[int]struct{})
	for _, e := range g.edges {
		set[e.From] = struct{}{}
		set[e.To] = struct{}{}
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func (g *refGraph) topoSort(css []*trace.CritSec) []int {
	indeg := make(map[int]int, len(css))
	for _, cs := range css {
		indeg[cs.ID] = 0
	}
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var queue []int
	for _, cs := range css {
		if indeg[cs.ID] == 0 {
			queue = append(queue, cs.ID)
		}
	}
	sort.Ints(queue)
	var order []int
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range g.out[n] {
			indeg[m]--
			if indeg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	return order
}

// sameInts treats a missing list and an empty one alike: the map code
// had no entry where the slice code has an empty list.
func sameInts(a, b []int) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }

func TestBuildMatchesMapReference(t *testing.T) {
	causal := 0
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.1, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				css := tr.ExtractCS()
				edges := ulcp.Identify(tr, css, ulcp.Options{}).CausalEdges
				// Every edge twice over, the copies apart: Build must
				// drop them and keep first-seen order.
				for _, in := range [][]ulcp.Edge{edges, append(append([]ulcp.Edge(nil), edges...), edges...)} {
					what := fmt.Sprintf("%s/threads=%d/seed=%d/%d edges", app, threads, seed, len(in))
					g, ref := mustBuild(t, css, in), buildRef(in)
					if !reflect.DeepEqual(g.Edges(), ref.edges) && len(ref.edges) > 0 {
						t.Fatalf("%s: edges differ", what)
					}
					if g.NumEdges() != len(ref.edges) || !sameInts(g.CausalNodes(), ref.causalNodes()) {
						t.Fatalf("%s: %d edges, causal %v; reference %d, %v", what, g.NumEdges(), g.CausalNodes(), len(ref.edges), ref.causalNodes())
					}
					for id := range css {
						if !sameInts(g.Targets(id), ref.out[id]) || !sameInts(g.Sources(id), ref.in[id]) {
							t.Fatalf("%s: node %d: out %v in %v, reference out %v in %v", what, id, g.Targets(id), g.Sources(id), ref.out[id], ref.in[id])
						}
						if g.Standalone(id) != (len(ref.out[id])+len(ref.in[id]) == 0) {
							t.Fatalf("%s: node %d standalone = %v", what, id, g.Standalone(id))
						}
					}
					order, err := g.TopoSort()
					if err != nil || !sameInts(order, ref.topoSort(css)) {
						t.Fatalf("%s: topological order differs from the reference (%v)", what, err)
					}
					causal += len(g.CausalNodes())
				}
			}
		}
	}
	if causal == 0 {
		t.Fatal("no workload produced a causal edge")
	}
}

// TestBuildRejectsUnknownNodes: what the map code answered with a nil
// critical section later on is an error up front.
func TestBuildRejectsUnknownNodes(t *testing.T) {
	css, _ := fig7()
	for _, e := range []ulcp.Edge{{From: 0, To: 6}, {From: 6, To: 0}, {From: -1, To: 2}, {From: 1, To: -3}} {
		if _, err := Build(css, []ulcp.Edge{{From: 0, To: 1}, e}); err == nil {
			t.Errorf("edge %v accepted over %d nodes", e, len(css))
		}
	}
	css[2], css[3] = css[3], css[2]
	if _, err := Build(css, nil); err == nil {
		t.Error("critical sections out of ID order accepted")
	}
	g := mustBuild(t, nil, nil)
	if order, err := g.TopoSort(); err != nil || len(order) != 0 || len(g.CausalNodes()) != 0 {
		t.Errorf("empty graph: order %v, %v", order, err)
	}
	for _, id := range []int{-1, 0, 99} {
		if g.OutDeg(id) != 0 || g.InDeg(id) != 0 || !g.Standalone(id) || g.CS(id) != nil {
			t.Errorf("node %d of an empty graph is not absent", id)
		}
	}
}
