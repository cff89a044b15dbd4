package lockset

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"perfplay/internal/sim"
	"perfplay/internal/topo"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

func TestSetOps(t *testing.T) {
	a := NewSet(3, 1, 2)
	if !a.Contains(2) || a.Contains(4) {
		t.Fatal("Contains broken")
	}
	b := NewSet(4, 5)
	if a.Intersects(b) {
		t.Fatal("disjoint sets must not intersect")
	}
	c := NewSet(5, 1)
	if !a.Intersects(c) {
		t.Fatal("sets sharing lock 1 must intersect")
	}
	if !MutuallyExclusive(a, c) {
		t.Fatal("RULE 4: intersecting locksets are mutually exclusive")
	}
	if MutuallyExclusive(a, b) {
		t.Fatal("RULE 4: disjoint locksets are not mutually exclusive")
	}
}

// TestIntersectsQuick: Intersects agrees with a naive set intersection.
func TestIntersectsQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b Set
		for _, x := range xs {
			a = append(a, trace.LockID(x%16))
		}
		for _, y := range ys {
			b = append(b, trace.LockID(y%16))
		}
		a, b = NewSet(a...), NewSet(b...)
		naive := false
		for _, x := range a {
			for _, y := range b {
				if x == y {
					naive = true
				}
			}
		}
		return a.Intersects(b) == naive && b.Intersects(a) == naive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fig8 reproduces the paper's Fig. 8 assignment over the Fig. 7 topology.
func fig8Graph(t *testing.T) *topo.Graph {
	t.Helper()
	l := trace.LockID(1)
	mk := func(id int, th int32, seq int) *trace.CritSec {
		return &trace.CritSec{ID: id, Thread: th, Lock: l, SeqInLock: seq,
			AcqEv: int32(id * 2), RelEv: int32(id*2 + 1)}
	}
	css := []*trace.CritSec{
		mk(0, 0, 0), // R1 in T1
		mk(1, 2, 1), // W1st in T3
		mk(2, 1, 2), // W1 in T2
		mk(3, 2, 3), // W2nd in T3
		mk(4, 1, 4), // R2 in T2 standalone
	}
	edges := []ulcp.Edge{
		{From: 0, To: 2}, {From: 0, To: 1},
		{From: 1, To: 2}, {From: 2, To: 3},
	}
	g, err := topo.Build(css, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAssignFig8(t *testing.T) {
	g := fig8Graph(t)
	a := Assign(g)

	// Out-degree nodes R1, W1st, W1 each get a fresh auxiliary lock.
	if a.NumAux != 3 {
		t.Fatalf("aux locks = %d, want 3", a.NumAux)
	}
	for _, id := range []int{0, 1, 2} {
		own := a.Own[id]
		if own == trace.NoLock {
			t.Fatalf("node %d missing own lock", id)
		}
		if !own.IsAux() {
			t.Fatalf("own lock %v of node %d is not auxiliary", own, id)
		}
	}
	if a.Own[3] != trace.NoLock {
		t.Fatal("W2nd has no outdegree and must not own a lock")
	}

	// W1 in T2 (node 2): lockset = {own, R1's, W1st's} — the paper's
	// LS={@L11,@L31} example generalized to its two sources here.
	ls2 := a.LS(2)
	if len(ls2) != 3 {
		t.Fatalf("lockset(W1-T2) = %v, want 3 members", ls2)
	}
	if !ls2.Contains(a.Own[2]) || !ls2.Contains(a.Own[0]) || !ls2.Contains(a.Own[1]) {
		t.Fatalf("lockset(W1-T2) = %v missing expected members", ls2)
	}

	// W2nd (node 3): inherits W1's lock only.
	ls3 := a.LS(3)
	if len(ls3) != 1 || !ls3.Contains(a.Own[2]) {
		t.Fatalf("lockset(W2nd) = %v, want exactly W1's lock", ls3)
	}

	// Standalone R2: empty lockset (sync removed).
	if len(a.LS(4)) != 0 {
		t.Fatalf("standalone node lockset = %v, want empty", a.LS(4))
	}

	// RULE 4 semantics over the assignment: connected nodes exclude each
	// other, standalone nodes exclude nobody.
	if !MutuallyExclusive(a.LS(0), a.LS(2)) {
		t.Error("R1 and W1 share an edge and must be mutually exclusive")
	}
	if MutuallyExclusive(a.LS(4), a.LS(2)) {
		t.Error("standalone R2 must not exclude anyone")
	}

	// Sources align with locks: own entries are -1.
	for id, srcs := range a.Sources {
		set := a.Sets[id]
		if len(srcs) != len(set) {
			t.Fatalf("node %d: sources/set length mismatch", id)
		}
		for i, src := range srcs {
			if src == -1 {
				if set[i] != a.Own[id] {
					t.Fatalf("node %d: -1 source not aligned with own lock", id)
				}
			} else if set[i] != a.Own[src] {
				t.Fatalf("node %d: source %d not aligned with its lock", id, src)
			}
		}
	}
}

func TestAssignDeterministic(t *testing.T) {
	a1 := Assign(fig8Graph(t))
	a2 := Assign(fig8Graph(t))
	if a1.NumAux != a2.NumAux {
		t.Fatal("aux allocation not deterministic")
	}
	for id, s1 := range a1.Sets {
		s2 := a2.Sets[id]
		if len(s1) != len(s2) {
			t.Fatalf("node %d: set sizes differ", id)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("node %d: sets differ", id)
			}
		}
	}
}

// refAssignment is Assign as it was with map-typed fields keyed by node
// ID; TestAssignMatchesMapReference holds the slice code to it.
type refAssignment struct {
	own     map[int]trace.LockID
	sets    map[int]Set
	sources map[int][]int
	numAux  int
}

func assignRef(g *topo.Graph) *refAssignment {
	a := &refAssignment{own: make(map[int]trace.LockID), sets: make(map[int]Set), sources: make(map[int][]int)}
	for _, id := range g.CausalNodes() {
		if g.OutDeg(id) > 0 {
			a.numAux++
			a.own[id] = trace.AuxLockBase + trace.LockID(a.numAux)
		}
	}
	for _, id := range g.CausalNodes() {
		type member struct {
			lock trace.LockID
			src  int
		}
		var members []member
		if own, ok := a.own[id]; ok {
			members = append(members, member{lock: own, src: -1})
		}
		for _, src := range g.Sources(id) {
			if own, ok := a.own[src]; ok {
				members = append(members, member{lock: own, src: src})
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i].lock < members[j].lock })
		set := make(Set, len(members))
		srcs := make([]int, len(members))
		for i, m := range members {
			set[i] = m.lock
			srcs[i] = m.src
		}
		a.sets[id] = set
		a.sources[id] = srcs
	}
	return a
}

func TestAssignMatchesMapReference(t *testing.T) {
	members := 0
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				what := fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed)
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.1, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				css := tr.ExtractCS()
				g, err := topo.Build(css, ulcp.Identify(tr, css, ulcp.Options{}).CausalEdges)
				if err != nil {
					t.Fatal(err)
				}
				a, ref := Assign(g), assignRef(g)
				if a.NumAux != ref.numAux || len(a.Own) != len(css) || len(a.Sets) != len(css) || len(a.Sources) != len(css) {
					t.Fatalf("%s: %d aux locks over %d/%d/%d nodes, reference %d over %d", what, a.NumAux, len(a.Own), len(a.Sets), len(a.Sources), ref.numAux, len(css))
				}
				for id := range css {
					// A node the maps had no entry for reads as no lock
					// and an empty set.
					if a.Own[id] != ref.own[id] {
						t.Fatalf("%s: node %d owns %v, reference %v", what, id, a.Own[id], ref.own[id])
					}
					set, srcs := ref.sets[id], ref.sources[id]
					if len(a.LS(id)) != len(set) || len(a.Sources[id]) != len(srcs) {
						t.Fatalf("%s: node %d lockset %v from %v, reference %v from %v", what, id, a.LS(id), a.Sources[id], set, srcs)
					}
					for i := range set {
						if a.Sets[id][i] != set[i] || a.Sources[id][i] != srcs[i] {
							t.Fatalf("%s: node %d lockset %v from %v, reference %v from %v", what, id, a.LS(id), a.Sources[id], set, srcs)
						}
					}
					if cap(a.Sets[id]) != len(set) || cap(a.Sources[id]) != len(srcs) {
						t.Fatalf("%s: node %d: an append to its lockset would write into the next node's", what, id)
					}
					members += len(set)
				}
			}
		}
	}
	if members == 0 {
		t.Fatal("no workload produced a lockset")
	}
	if ls := Assign(fig8Graph(t)).LS(99); ls != nil {
		t.Fatalf("lockset of a node outside the graph = %v", ls)
	}
}
