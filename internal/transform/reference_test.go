package transform

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/simtest"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// applyRef is Apply as it was when topology and locksets were maps keyed
// by CritSec.ID — edge de-duplication by map, causal nodes from a set,
// members sorted with sort.Slice, one Sources slice per lockset,
// constraints de-duplicated by map — folded into one function. It
// returns the trace and the three counters of Result, or an error for
// the input Plan must refuse: css not indexed by ID, an edge naming a
// node outside css, a cycle (found by depth-first search), a section
// without a release, or an output that does not validate.
func applyRef(tr *trace.Trace, css []*trace.CritSec, rep *ulcp.Report) (*trace.Trace, [3]int, error) {
	g, err := buildRefGraph(css, rep.CausalEdges)
	if err != nil {
		return nil, [3]int{}, err
	}
	for _, cs := range css {
		if cs.RelEv < 0 {
			return nil, [3]int{}, fmt.Errorf("%v has no release", cs)
		}
	}
	locksets := assignRef(g)
	edges := g.edges

	res := trace.New(tr.App, tr.NumThreads)
	res.Sites, res.MemNames, res.InitMem, res.FinalMem = tr.Sites, tr.MemNames, tr.InitMem, tr.FinalMem
	res.SpinLocks, res.TotalTime = tr.SpinLocks, tr.TotalTime
	res.Events = make([]trace.Event, len(tr.Events))
	copy(res.Events, tr.Events)
	res.Exts = append([]trace.EventExt{}, tr.Exts...)
	var counts [3]int // RemovedSync, LocksetNodes, Constraints
	for _, cs := range css {
		members := locksets[cs.ID]
		if len(members) == 0 {
			noop(&res.Events[cs.AcqEv])
			noop(&res.Events[cs.RelEv])
			counts[0]++
			continue
		}
		locks, sources := make([]trace.LockID, len(members)), make([]int32, len(members))
		for i, m := range members {
			locks[i], sources[i] = m.lock, -1
			if m.src >= 0 {
				sources[i] = css[m.src].RelEv
			}
		}
		acq, rel := &res.Events[cs.AcqEv], &res.Events[cs.RelEv]
		res.Exts = append(res.Exts, trace.EventExt{Locks: locks, Sources: sources}, trace.EventExt{Locks: locks})
		acq.Kind, acq.Lock, acq.Ext, acq.Spin = trace.KLocksetAcq, trace.NoLock, int32(len(res.Exts)-1), false
		rel.Kind, rel.Lock, rel.Ext = trace.KLocksetRel, trace.NoLock, int32(len(res.Exts))
		counts[1]++
	}
	consSeen := make(map[trace.Constraint]bool)
	for _, e := range edges {
		c := trace.Constraint{After: css[e.From].RelEv, Before: css[e.To].AcqEv}
		if !consSeen[c] {
			consSeen[c] = true
			res.Constraints = append(res.Constraints, c)
		}
	}
	counts[2] = len(res.Constraints)
	if err := res.Validate(); err != nil {
		return nil, [3]int{}, err
	}
	return res, counts, nil
}

// refGraph is the RULE-1 topology as maps keyed by CritSec.ID: the
// de-duplicated edges in first-seen order, each node's targets and
// sources, and the causal nodes, sorted.
type refGraph struct {
	edges   []ulcp.Edge
	out, in map[int][]int
	causal  []int
}

// buildRefGraph is applyRef's graph step. It refuses css not indexed by
// ID, an edge naming a node outside css, and a cycle, found by
// depth-first search.
func buildRefGraph(css []*trace.CritSec, edges []ulcp.Edge) (*refGraph, error) {
	for i, cs := range css {
		if cs.ID != i {
			return nil, fmt.Errorf("index %d holds ID %d", i, cs.ID)
		}
	}
	g := &refGraph{out: make(map[int][]int), in: make(map[int][]int)}
	seen := make(map[ulcp.Edge]bool)
	for _, e := range edges {
		from, to := int(e.From), int(e.To)
		if from < 0 || from >= len(css) || to < 0 || to >= len(css) {
			return nil, fmt.Errorf("edge %v outside [0,%d)", e, len(css))
		}
		if seen[e] {
			continue
		}
		seen[e] = true
		g.edges = append(g.edges, e)
		g.out[from] = append(g.out[from], to)
		g.in[to] = append(g.in[to], from)
	}
	const (
		unvisited = iota
		onPath
		done
	)
	state := make(map[int]int)
	var cyclic func(v int) bool
	cyclic = func(v int) bool {
		state[v] = onPath
		for _, w := range g.out[v] {
			if state[w] == onPath || state[w] == unvisited && cyclic(w) {
				return true
			}
		}
		state[v] = done
		return false
	}
	for v := range g.out {
		if state[v] == unvisited && cyclic(v) {
			return nil, fmt.Errorf("cycle through node %d", v)
		}
	}
	set := make(map[int]struct{})
	for _, e := range g.edges {
		set[int(e.From)] = struct{}{}
		set[int(e.To)] = struct{}{}
	}
	g.causal = make([]int, 0, len(set))
	for id := range set {
		g.causal = append(g.causal, id)
	}
	sort.Ints(g.causal)
	return g, nil
}

// member is one lockset entry of the reference assignment: the auxiliary
// lock and the node that owns it, or -1 for the node's own lock.
type member struct {
	lock trace.LockID
	src  int
}

// assignRef is applyRef's RULE-3/RULE-4 step: each causal node with an
// out-edge owns a fresh auxiliary lock, numbered in node order, and a
// causal node's lockset is its own lock and its sources', sorted.
func assignRef(g *refGraph) map[int][]member {
	own, numAux := make(map[int]trace.LockID), 0
	for _, id := range g.causal {
		if len(g.out[id]) > 0 {
			numAux++
			own[id] = trace.AuxLockBase + trace.LockID(numAux)
		}
	}
	locksets := make(map[int][]member)
	for _, id := range g.causal {
		var members []member
		if l, ok := own[id]; ok {
			members = append(members, member{l, -1})
		}
		for _, src := range g.in[id] {
			if l, ok := own[src]; ok {
				members = append(members, member{l, src})
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i].lock < members[j].lock })
		locksets[id] = members
	}
	return locksets
}

// recording is one registered workload's trace, its critical sections
// and its ULCP report.
type recording struct {
	what string
	tr   *trace.Trace
	css  []*trace.CritSec
	rep  *ulcp.Report
}

// recordings runs every registered workload at two and four threads
// under seeds 7 and 42, once for all the tests that read them.
var recordings = sync.OnceValue(func() []recording {
	var out []recording
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.1, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				css := tr.ExtractCS()
				out = append(out, recording{fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed),
					tr, css, ulcp.Identify(tr, css, ulcp.Options{})})
			}
		}
	}
	return out
})

// doubled is rep with its causal edges once more behind themselves.
func doubled(rep *ulcp.Report) *ulcp.Report {
	d := *rep
	d.CausalEdges = slices.Concat(rep.CausalEdges, rep.CausalEdges)
	return &d
}

// TestPlanGraphMatchesMapReference: on every registered workload's causal
// edges, once and doubled, the plan carries the map graph: one
// constraint per distinct edge, in first-seen order; a lockset for
// exactly the causal nodes; an own lock for exactly the nodes with an
// out-edge; and, beside it, one member per source, released by that
// source.
func TestPlanGraphMatchesMapReference(t *testing.T) {
	causal := 0
	for _, r := range recordings() {
		for _, rep := range []*ulcp.Report{r.rep, doubled(r.rep)} {
			what := fmt.Sprintf("%s/%d edges", r.what, len(rep.CausalEdges))
			res, err := Plan(r.css, rep)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			g, err := buildRefGraph(r.css, rep.CausalEdges)
			if err != nil {
				t.Fatalf("%s: reference: %v", what, err)
			}
			p := res.Plan
			var cons []trace.Constraint
			for _, e := range g.edges {
				cons = append(cons, trace.Constraint{After: r.css[e.From].RelEv, Before: r.css[e.To].AcqEv})
			}
			if !slices.Equal(p.Constraints, cons) {
				t.Fatalf("%s: %d constraints, reference edges give %d", what, len(p.Constraints), len(cons))
			}
			if res.LocksetNodes != len(g.causal) || res.RemovedSync != len(r.css)-len(g.causal) {
				t.Fatalf("%s: %d lockset nodes, %d removed; reference %d causal of %d", what, res.LocksetNodes, res.RemovedSync, len(g.causal), len(r.css))
			}
			for id := range r.css {
				_, sources := lockset(p, id)
				var want []int32
				if len(g.out[id]) > 0 {
					want = append(want, -1)
				}
				for _, src := range g.in[id] {
					want = append(want, r.css[src].RelEv)
				}
				if got := slices.Sorted(slices.Values(sources)); !slices.Equal(got, slices.Sorted(slices.Values(want))) {
					t.Fatalf("%s: node %d: members from %v; reference out %v in %v", what, id, sources, g.out[id], g.in[id])
				}
			}
			causal += len(g.causal)
		}
	}
	if causal == 0 {
		t.Fatal("no workload produced a causal edge")
	}
}

// TestPlanLocksetsMatchMapReference: on every registered workload, each
// section's lockset and its sources, in order, equal the map
// assignment's, and a section the map has no lockset for has none.
func TestPlanLocksetsMatchMapReference(t *testing.T) {
	members := 0
	for _, r := range recordings() {
		res, err := Plan(r.css, r.rep)
		if err != nil {
			t.Fatalf("%s: %v", r.what, err)
		}
		g, err := buildRefGraph(r.css, r.rep.CausalEdges)
		if err != nil {
			t.Fatalf("%s: reference: %v", r.what, err)
		}
		ref := assignRef(g)
		for id := range r.css {
			locks, sources := lockset(res.Plan, id)
			want := ref[id]
			if len(locks) != len(want) || len(sources) != len(want) {
				t.Fatalf("%s: node %d lockset %v from %v, reference %v", r.what, id, locks, sources, want)
			}
			for i, m := range want {
				src := int32(-1)
				if m.src >= 0 {
					src = r.css[m.src].RelEv
				}
				if locks[i] != m.lock || sources[i] != src {
					t.Fatalf("%s: node %d lockset %v from %v, reference %v", r.what, id, locks, sources, want)
				}
			}
			members += len(want)
		}
	}
	if members == 0 {
		t.Fatal("no workload produced a lockset")
	}
}

// TestApplyMatchesMapReference: the transformed trace — every event,
// lockset, source and constraint, in order — and the counters equal the
// map-based transformation's on every registered workload.
func TestApplyMatchesMapReference(t *testing.T) {
	locksets := 0
	for _, r := range recordings() {
		// The report's edges once more behind themselves: the duplicates
		// must change nothing.
		for _, rep := range []*ulcp.Report{r.rep, doubled(r.rep)} {
			got := requireApplyMatchesRef(t, r.what, r.tr, r.css, rep)
			if got == nil {
				t.Fatalf("%s: the report's own edges were refused", r.what)
			}
			locksets += got.LocksetNodes
		}
	}
	if locksets == 0 {
		t.Fatal("no workload produced a lockset node")
	}
}

// requireApplyMatchesRef fails unless Apply and applyRef agree on rep:
// both refuse it, or both accept it with the same transformed trace —
// every event, lockset, source and constraint, in order — and the same
// counters. It returns Apply's result.
func requireApplyMatchesRef(t testing.TB, what string, tr *trace.Trace, css []*trace.CritSec, rep *ulcp.Report) *Result {
	t.Helper()
	got, err := Apply(tr, css, rep)
	want, counts, wantErr := applyRef(tr, css, rep)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: Apply error %v, reference error %v", what, err, wantErr)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(got.Trace, want) {
		t.Fatalf("%s: transformed trace differs from the map reference's", what)
	}
	if gotCounts := [3]int{got.RemovedSync, got.LocksetNodes, got.Constraints}; gotCounts != counts {
		t.Fatalf("%s: removed/lockset/constraints = %v, reference %v", what, gotCounts, counts)
	}
	return got
}

// FuzzPlanMatchesReference holds Apply to applyRef over generated
// programs — any seed, two to four threads, one to three locks, one to
// eight critical sections per thread, with and without skips and
// barriers — and the report's causal edges mangled by a byte script:
// each three bytes (op, x, y) duplicate an edge, add a backward edge,
// add an edge between any two sections (across locks, or a self-loop),
// add one naming a section out of range, reverse an edge (a cycle), or
// drop one, at a position the script picks; 64 steps at most. Both must
// refuse the same inputs.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), uint8(0), []byte{})
	f.Add(int64(7), uint8(1), uint8(1), uint8(6), uint8(simtest.Skips), []byte{0, 0, 0, 1, 3, 1, 2, 5, 9})
	f.Add(int64(42), uint8(2), uint8(2), uint8(7), uint8(simtest.Barriers), []byte{4, 1, 0})
	f.Add(int64(-3), uint8(1), uint8(0), uint8(3), uint8(0), []byte{3, 2, 7, 5, 0, 0, 2, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, threads, locks, iters, with uint8, script []byte) {
		tr := simtest.RandomProgram(seed, 2+int(threads%3), 1+int(locks%3), 1+int(iters%8),
			simtest.Feature(with)&(simtest.Skips|simtest.Barriers)).Trace
		css := tr.ExtractCS()
		rep := ulcp.Identify(tr, css, ulcp.Options{})
		edges, n := slices.Clone(rep.CausalEdges), int32(len(css))
		for script = script[:min(len(script), 3*64)]; len(script) >= 3 && n > 0; script = script[3:] {
			op, x, y := script[0]%6, int32(script[1]), int32(script[2])
			a, b := x%n, y%n
			var e ulcp.Edge
			switch {
			case op == 0 && len(edges) > 0:
				e = edges[int(x)%len(edges)]
			case op == 1 && a != b:
				e = ulcp.Edge{From: max(a, b), To: min(a, b)}
			case op == 2:
				e = ulcp.Edge{From: a, To: b}
			case op == 3 && x%2 == 0:
				e = ulcp.Edge{From: a, To: n + y}
			case op == 3:
				e = ulcp.Edge{From: -1 - x, To: b}
			case op == 4 && len(edges) > 0:
				r := edges[int(x)%len(edges)]
				e = ulcp.Edge{From: r.To, To: r.From}
			case op == 5 && len(edges) > 0:
				edges = slices.Delete(edges, int(x)%len(edges), int(x)%len(edges)+1)
				continue
			default:
				continue
			}
			edges = slices.Insert(edges, int(y)%(len(edges)+1), e)
		}
		requireApplyMatchesRef(t, "fuzz", tr, css, &ulcp.Report{CausalEdges: edges})
	})
}

// TestApplyRejectsForeignEdges: a report whose causal edges name critical
// sections the trace does not have is an error, where it used to be a
// nil dereference.
func TestApplyRejectsForeignEdges(t *testing.T) {
	rec, css, rep, _ := pipeline(t, contendedWriters)
	if len(rep.CausalEdges) == 0 {
		t.Fatal("fixture has no causal edge")
	}
	for _, e := range []ulcp.Edge{{From: 0, To: int32(len(css))}, {From: -1, To: 0}} {
		bad := *rep
		bad.CausalEdges = append(append([]ulcp.Edge(nil), rep.CausalEdges...), e)
		if _, err := Apply(rec.Trace, css, &bad); err == nil {
			t.Errorf("edge %v over %d critical sections transformed", e, len(css))
		}
	}
}

// contendedWriters: two threads take turns writing one cell under one
// lock, so every critical section is a causal node.
func contendedWriters(p *sim.Program) {
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("w.c", 1, "f")
	for i := 0; i < 2; i++ {
		i := i
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 4; j++ {
				th.Lock(l, s)
				th.Write(x, int64(10*i+j), s)
				th.Unlock(l, s)
				th.Compute(60)
			}
		})
	}
}

// TestTransformAllocsPerCS: Apply allocates a few dozen objects — the
// output trace, its event array and its extension table (made once, at
// exactly two entries per lockset node past the source's), the graph's
// and the assignment's shared arrays, the plan's columns, Validate's
// per-thread maps (which grow with the locks a thread touches) — not a
// number that follows the critical sections, edges or locksets of the
// trace.
func TestTransformAllocsPerCS(t *testing.T) {
	for _, app := range []string{"fluidanimate", "mysql"} {
		var allocs [2]float64
		var sections [2]int
		for i, scale := range []float64{0.05, 0.1} {
			p := workload.MustGet(app).Build(workload.Config{Threads: 4, Scale: scale, Seed: 42})
			tr := sim.Run(p, sim.Config{Seed: 42}).Trace.Warm()
			css := tr.ExtractCS()
			rep := ulcp.Identify(tr, css, ulcp.Options{})
			res, err := Apply(tr, css, rep)
			if err != nil {
				t.Fatal(err)
			}
			if res.LocksetNodes == 0 {
				t.Fatalf("%s x%v: no lockset node", app, scale)
			}
			if exts, want := res.Trace.Exts, len(tr.Exts)+2*res.LocksetNodes; len(exts) != want || cap(exts) != want {
				t.Fatalf("%s x%v: extension table len %d cap %d for %d lockset nodes, want exactly %d",
					app, scale, len(exts), cap(exts), res.LocksetNodes, want)
			}
			// Same threads at the same indices: the copy indexes its events
			// by thread through the recording's index, not one of its own.
			if own, shared := res.Trace.PerThread(), tr.PerThread(); &own[0][0] != &shared[0][0] {
				t.Fatalf("%s x%v: the transformed trace built a per-thread index of its own", app, scale)
			}
			sections[i] = len(css)
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, err := Apply(tr, css, rep); err != nil {
					t.Fatal(err)
				}
			})
		}
		if sections[1] < sections[0]*3/2 {
			t.Fatalf("%s: %d then %d critical sections: the scales do not separate", app, sections[0], sections[1])
		}
		if allocs[1] > 64 || allocs[1]-allocs[0] > 8 {
			t.Fatalf("%s: %v allocations for %d critical sections, %v for %d; want <= 64 and within 8 of each other",
				app, allocs[0], sections[0], allocs[1], sections[1])
		}
	}
}
