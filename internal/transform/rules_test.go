package transform

import (
	"reflect"
	"slices"
	"testing"

	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
)

// fig7 builds the paper's Fig. 7 example: R1(T1), W1st(T3), W1(T2),
// W2nd(T3), R2(T2), R2(T1) under one lock, with causal edges
// R1→W1(T2), R1→W1st(T3), W1st→W1(T2), W1(T2)→W2nd. Section i acquires
// at event 2i and releases at 2i+1.
func fig7() ([]*trace.CritSec, []ulcp.Edge) {
	l := trace.LockID(1)
	mk := func(id int, thread int32) *trace.CritSec {
		return &trace.CritSec{ID: id, Thread: thread, Lock: l, SeqInLock: id,
			AcqEv: int32(id * 2), RelEv: int32(id*2 + 1)}
	}
	css := []*trace.CritSec{
		mk(0, 0), // R1 in T1
		mk(1, 2), // W1st in T3
		mk(2, 1), // W1 in T2
		mk(3, 2), // W2nd in T3
		mk(4, 1), // R2 in T2 (standalone)
		mk(5, 0), // R2 in T1 (standalone)
	}
	edges := []ulcp.Edge{
		{From: 0, To: 2}, {From: 0, To: 1},
		{From: 1, To: 2}, {From: 2, To: 3},
	}
	return css, edges
}

// lockset returns section i's lockset and its sources.
func lockset(p *trace.Plan, i int) ([]trace.LockID, []int32) {
	lo, hi := p.Off[i], p.Off[i+1]
	return p.Locks[lo:hi], p.Sources[lo:hi]
}

// mustPlan is Plan for inputs the test knows are well formed.
func mustPlan(t *testing.T, css []*trace.CritSec, edges []ulcp.Edge) *Result {
	t.Helper()
	res, err := Plan(css, &ulcp.Report{CausalEdges: edges})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// ownsLock reports whether section i's lockset holds a lock of its own:
// whether it has an out-edge.
func ownsLock(p *trace.Plan, i int) bool {
	_, sources := lockset(p, i)
	return slices.Contains(sources, -1)
}

// TestPlanFig7Graph: the plan has the shape of the Fig. 7 graph. Its four
// edges are four constraints; R1, of out-degree 2, owns a lock and is
// released before two acquisitions; W1 in T2, of in-degree 2, has two
// members besides its own; the four causal nodes keep a lockset and the
// two standalone R2s lose their lock operations.
func TestPlanFig7Graph(t *testing.T) {
	css, edges := fig7()
	res := mustPlan(t, css, edges)
	p := res.Plan
	if len(p.Acq) != 6 || len(p.Off) != 7 {
		t.Fatalf("%d sections, %d offsets; want 6 and 7", len(p.Acq), len(p.Off))
	}
	if res.Constraints != 4 || len(p.Constraints) != 4 {
		t.Fatalf("constraints = %d (%d in the plan), want 4", res.Constraints, len(p.Constraints))
	}
	outDeg := 0
	for _, c := range p.Constraints {
		if c.After == css[0].RelEv {
			outDeg++
		}
	}
	if outDeg != 2 || !ownsLock(p, 0) {
		t.Errorf("R1: released before %d acquisitions, owns a lock %v; want 2 and true", outDeg, ownsLock(p, 0))
	}
	if _, sources := lockset(p, 2); len(sources) != 3 || !ownsLock(p, 2) {
		t.Errorf("W1-T2: members from %v, want its own and two sources'", sources)
	}
	if ownsLock(p, 3) {
		t.Error("W2nd has no out-edge and must not own a lock")
	}
	for _, i := range []int{4, 5} {
		if locks, _ := lockset(p, i); len(locks) != 0 {
			t.Errorf("standalone R2 (section %d) keeps lockset %v", i, locks)
		}
	}
	if locks, _ := lockset(p, 0); len(locks) == 0 {
		t.Error("R1 is causal, not standalone")
	}
	if res.LocksetNodes != 4 || res.RemovedSync != 2 {
		t.Errorf("lockset/removed = %d/%d, want 4/2", res.LocksetNodes, res.RemovedSync)
	}
}

// TestPlanSourcesAndTargets: a section's sources are the sections whose
// releases its lockset names, and its targets the sections whose
// acquisitions its release constrains. On Fig. 7, W1 in T2 has R1 and
// W1st as sources, and R1 has W1 in T2 and W1st as targets. Each
// section's boundaries are its own acquisition and release.
func TestPlanSourcesAndTargets(t *testing.T) {
	css, edges := fig7()
	p := mustPlan(t, css, edges).Plan
	var srcs []int32
	_, members := lockset(p, 2)
	for _, s := range members {
		if s != -1 {
			srcs = append(srcs, s)
		}
	}
	if want := []int32{css[0].RelEv, css[1].RelEv}; !slices.Equal(srcs, want) {
		t.Errorf("sources(W1-T2) = releases %v, want %v", srcs, want)
	}
	var tgts []int32
	for _, c := range p.Constraints {
		if c.After == css[0].RelEv {
			tgts = append(tgts, c.Before)
		}
	}
	if want := []int32{css[2].AcqEv, css[1].AcqEv}; !slices.Equal(tgts, want) {
		t.Errorf("targets(R1) = acquisitions %v, want %v", tgts, want)
	}
	for i, cs := range css {
		if p.Acq[i] != cs.AcqEv || p.Rel[i] != cs.RelEv {
			t.Errorf("section %d: boundaries %d/%d, want %d/%d", i, p.Acq[i], p.Rel[i], cs.AcqEv, cs.RelEv)
		}
	}
}

// TestPlanFig8Locksets: over the Fig. 7 topology, the plan carries the
// Fig. 8 assignment. Each node with out-degree (R1, W1st, W1) owns a
// fresh auxiliary lock, numbered in node order; a node's lockset is its
// own lock plus its sources' locks, sorted, each member's source the
// release of the section that owns it; the standalone R2s lose their
// lock operations; every causal edge is one constraint, in edge order;
// and RULE 4 holds: sections joined by an edge share a lock, a
// standalone one excludes nobody.
func TestPlanFig8Locksets(t *testing.T) {
	css, edges := fig7()
	res, err := Plan(css, &ulcp.Report{CausalEdges: edges})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	aux := func(k int) trace.LockID { return trace.AuxLockBase + trace.LockID(k) }
	want := []struct {
		locks   []trace.LockID
		sources []int32
	}{
		{[]trace.LockID{aux(1)}, []int32{-1}},                       // R1: its own
		{[]trace.LockID{aux(1), aux(2)}, []int32{1, -1}},            // W1st: R1's, its own
		{[]trace.LockID{aux(1), aux(2), aux(3)}, []int32{1, 3, -1}}, // W1: R1's, W1st's, its own
		{[]trace.LockID{aux(3)}, []int32{5}},                        // W2nd: W1's
		{nil, nil}, {nil, nil},                                      // the R2s: removed
	}
	for i, w := range want {
		locks, sources := lockset(p, i)
		if !slices.Equal(locks, w.locks) || !slices.Equal(sources, w.sources) {
			t.Errorf("section %d: lockset %v from %v, want %v from %v", i, locks, sources, w.locks, w.sources)
		}
		if p.Acq[i] != css[i].AcqEv || p.Rel[i] != css[i].RelEv {
			t.Errorf("section %d: boundaries %d/%d, want %d/%d", i, p.Acq[i], p.Rel[i], css[i].AcqEv, css[i].RelEv)
		}
	}
	if res.RemovedSync != 2 || res.LocksetNodes != 4 || res.Constraints != 4 {
		t.Errorf("removed/lockset/constraints = %d/%d/%d, want 2/4/4", res.RemovedSync, res.LocksetNodes, res.Constraints)
	}
	wantCons := []trace.Constraint{{After: 1, Before: 4}, {After: 1, Before: 2}, {After: 3, Before: 4}, {After: 5, Before: 6}}
	if !slices.Equal(p.Constraints, wantCons) {
		t.Errorf("constraints %v, want %v", p.Constraints, wantCons)
	}
	shares := func(i, j int) bool {
		a, _ := lockset(p, i)
		b, _ := lockset(p, j)
		return slices.ContainsFunc(a, func(l trace.LockID) bool { return slices.Contains(b, l) })
	}
	for _, e := range edges {
		if !shares(int(e.From), int(e.To)) {
			t.Errorf("RULE 4: sections %d and %d share an edge but no lock", e.From, e.To)
		}
	}
	for i := range css {
		if shares(4, i) {
			t.Errorf("RULE 4: standalone section 4 excludes section %d", i)
		}
	}
}

// TestPlanDeterministic: planning the same input twice gives the same
// plan, on Fig. 7 and on every registered workload.
func TestPlanDeterministic(t *testing.T) {
	css, edges := fig7()
	if a, b := mustPlan(t, css, edges), mustPlan(t, css, edges); !reflect.DeepEqual(a, b) {
		t.Error("Fig. 7: a second plan differs")
	}
	for _, r := range recordings() {
		a, b := mustPlan(t, r.css, r.rep.CausalEdges), mustPlan(t, r.css, r.rep.CausalEdges)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: a second plan differs", r.what)
		}
	}
}

// TestPlanDeduplicatesEdges: a repeated causal edge is one constraint and
// one lockset member, as if it were given once.
func TestPlanDeduplicatesEdges(t *testing.T) {
	css, _ := fig7()
	once, err := Plan(css, &ulcp.Report{CausalEdges: []ulcp.Edge{{From: 0, To: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Plan(css, &ulcp.Report{CausalEdges: []ulcp.Edge{{From: 0, To: 2}, {From: 0, To: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if twice.Constraints != 1 || !reflect.DeepEqual(twice.Plan, once.Plan) {
		t.Fatalf("a repeated edge gave %d constraints and plan %+v, want the single edge's %+v", twice.Constraints, twice.Plan, once.Plan)
	}
}

// TestPlanAcceptsAcyclic: edges that close no cycle are planned, each as
// one constraint from the source's release to the target's acquisition:
// Fig. 7's, and edges against the acquisition order.
func TestPlanAcceptsAcyclic(t *testing.T) {
	css, edges := fig7()
	for _, ok := range [][]ulcp.Edge{edges, {{From: 3, To: 0}}, append(slices.Clone(edges), ulcp.Edge{From: 5, To: 4})} {
		res, err := Plan(css, &ulcp.Report{CausalEdges: ok})
		if err != nil {
			t.Errorf("edges %v refused: %v", ok, err)
			continue
		}
		if len(res.Plan.Constraints) != len(ok) {
			t.Errorf("edges %v: %d constraints", ok, len(res.Plan.Constraints))
			continue
		}
		for i, e := range ok {
			if c := res.Plan.Constraints[i]; c.After != css[e.From].RelEv || c.Before != css[e.To].AcqEv {
				t.Errorf("edges %v: constraint %d is %v, not edge %v", ok, i, c, e)
			}
		}
	}
}

// TestPlanRejectsCycle: causal edges that close a cycle — two nodes, one
// node on itself, or a back edge over Fig. 7's — are an error.
func TestPlanRejectsCycle(t *testing.T) {
	css, edges := fig7()
	for _, cyclic := range [][]ulcp.Edge{
		{{From: 0, To: 2}, {From: 2, To: 0}},
		{{From: 4, To: 4}},
		append(slices.Clone(edges), ulcp.Edge{From: 3, To: 0}),
	} {
		if _, err := Plan(css, &ulcp.Report{CausalEdges: cyclic}); err == nil {
			t.Errorf("cycle %v not detected", cyclic)
		}
	}
}

// TestPlanRejectsUnknownNodes: an edge naming a section outside css, and
// css out of ID order, are errors up front; no sections and no edges is
// an empty plan.
func TestPlanRejectsUnknownNodes(t *testing.T) {
	css, _ := fig7()
	for _, e := range []ulcp.Edge{{From: 0, To: 6}, {From: 6, To: 0}, {From: -1, To: 2}, {From: 1, To: -3}} {
		if _, err := Plan(css, &ulcp.Report{CausalEdges: []ulcp.Edge{{From: 0, To: 1}, e}}); err == nil {
			t.Errorf("edge %v accepted over %d sections", e, len(css))
		}
	}
	css[2], css[3] = css[3], css[2]
	if _, err := Plan(css, &ulcp.Report{}); err == nil {
		t.Error("critical sections out of ID order accepted")
	}
	res, err := Plan(nil, &ulcp.Report{})
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Plan; len(p.Acq) != 0 || !slices.Equal(p.Off, []int32{0}) || len(p.Locks) != 0 || p.Constraints != nil {
		t.Errorf("empty input: plan %+v", p)
	}
}
