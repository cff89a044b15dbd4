package transform

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

// applyRef is Apply as it was when topology and locksets were maps keyed
// by CritSec.ID — edge de-duplication by map, causal nodes from a set,
// members sorted with sort.Slice, one Sources slice per lockset,
// constraints de-duplicated by map — folded into one function. It
// returns the trace and the three counters of Result.
func applyRef(tr *trace.Trace, css []*trace.CritSec, rep *ulcp.Report) (*trace.Trace, [3]int) {
	out, in := make(map[int][]int), make(map[int][]int)
	var edges []ulcp.Edge
	seen := make(map[ulcp.Edge]bool)
	for _, e := range rep.CausalEdges {
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
		out[e.From] = append(out[e.From], e.To)
		in[e.To] = append(in[e.To], e.From)
	}
	set := make(map[int]struct{})
	for _, e := range edges {
		set[e.From] = struct{}{}
		set[e.To] = struct{}{}
	}
	causal := make([]int, 0, len(set))
	for id := range set {
		causal = append(causal, id)
	}
	sort.Ints(causal)

	own, numAux := make(map[int]trace.LockID), 0
	for _, id := range causal {
		if len(out[id]) > 0 {
			numAux++
			own[id] = trace.AuxLockBase + trace.LockID(numAux)
		}
	}
	type member struct {
		lock trace.LockID
		src  int
	}
	locksets := make(map[int][]member)
	for _, id := range causal {
		var members []member
		if l, ok := own[id]; ok {
			members = append(members, member{l, -1})
		}
		for _, src := range in[id] {
			if l, ok := own[src]; ok {
				members = append(members, member{l, src})
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i].lock < members[j].lock })
		locksets[id] = members
	}

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
	return res, counts
}

// TestApplyMatchesMapReference: the transformed trace — every event,
// lockset, source and constraint, in order — and the counters equal the
// map-based transformation's on every registered workload.
func TestApplyMatchesMapReference(t *testing.T) {
	locksets := 0
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				what := fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed)
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.1, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				css := tr.ExtractCS()
				rep := ulcp.Identify(tr, css, ulcp.Options{})
				// The report's edges once more behind themselves: the
				// duplicates must change nothing.
				doubled := *rep
				doubled.CausalEdges = append(append([]ulcp.Edge(nil), rep.CausalEdges...), rep.CausalEdges...)
				for _, r := range []*ulcp.Report{rep, &doubled} {
					got, err := Apply(tr, css, r)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					want, counts := applyRef(tr, css, r)
					if !reflect.DeepEqual(got.Trace, want) {
						t.Fatalf("%s: transformed trace differs from the map reference's", what)
					}
					if gotCounts := [3]int{got.RemovedSync, got.LocksetNodes, got.Constraints}; gotCounts != counts {
						t.Fatalf("%s: removed/lockset/constraints = %v, reference %v", what, gotCounts, counts)
					}
					locksets += got.LocksetNodes
				}
			}
		}
	}
	if locksets == 0 {
		t.Fatal("no workload produced a lockset node")
	}
}

// TestApplyRejectsForeignEdges: a report whose causal edges name critical
// sections the trace does not have is an error, where it used to be a
// nil dereference.
func TestApplyRejectsForeignEdges(t *testing.T) {
	rec, css, rep, _ := pipeline(t, contendedWriters)
	if len(rep.CausalEdges) == 0 {
		t.Fatal("fixture has no causal edge")
	}
	for _, e := range []ulcp.Edge{{From: 0, To: len(css)}, {From: -1, To: 0}} {
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
