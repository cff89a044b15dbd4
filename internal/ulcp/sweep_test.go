package ulcp

import (
	"sort"
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// refPrefixState is the naive per-pair prefix reconstruction the sweep
// replaced, kept here as the test oracle.
func refPrefixState(tr *trace.Trace, before int32) map[memmodel.Addr]int64 {
	mem := make(map[memmodel.Addr]int64, len(tr.InitMem)+16)
	for a, v := range tr.InitMem {
		mem[a] = v
	}
	for i := int32(0); i < before; i++ {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KWrite:
			mem[e.Addr] = e.Op.Apply(mem[e.Addr], e.Value)
		case trace.KSkip:
			for a, v := range tr.Ext(e).Delta {
				mem[a] = v
			}
		}
	}
	return mem
}

// refExecPair is the naive full-copy pair execution (with the skip-delta
// handling the production overlay applies), the second half of the oracle.
func refExecPair(tr *trace.Trace, pre map[memmodel.Addr]int64, first, second *trace.CritSec) pairOutcome {
	mem := make(map[memmodel.Addr]int64, len(pre))
	for a, v := range pre {
		mem[a] = v
	}
	out := pairOutcome{writes: make(map[memmodel.Addr]int64)}
	var r1, r2 []int64
	exec := func(cs *trace.CritSec, reads *[]int64) {
		for i := cs.AcqEv; i <= cs.RelEv; i++ {
			e := &tr.Events[i]
			if e.Thread != cs.Thread {
				continue
			}
			switch e.Kind {
			case trace.KRead:
				*reads = append(*reads, mem[e.Addr])
			case trace.KWrite:
				mem[e.Addr] = e.Op.Apply(mem[e.Addr], e.Value)
				out.writes[e.Addr] = mem[e.Addr]
			case trace.KSkip:
				for a, v := range tr.Ext(e).Delta {
					mem[a] = v
					out.writes[a] = v
				}
			}
		}
	}
	if first.AcqEv <= second.AcqEv {
		exec(first, &r1)
		exec(second, &r2)
	} else {
		exec(first, &r2)
		exec(second, &r1)
	}
	for a := range out.writes {
		out.writes[a] = mem[a]
	}
	out.reads = append(r1, r2...)
	return out
}

func refReversedReplayEqual(tr *trace.Trace, c1, c2 *trace.CritSec) bool {
	pre := refPrefixState(tr, c1.AcqEv)
	fwd := refExecPair(tr, pre, c1, c2)
	rev := refExecPair(tr, pre, c2, c1)
	return outcomesEqual(&fwd, &rev)
}

// refSets are a critical section's shadow sets as three maps — the
// representation trace.CritSec had before the sorted access lists —
// rebuilt from the section's own events, not from Acc, so the references
// below share nothing with what they pin.
type refSets struct {
	reads, writes map[memmodel.Addr]struct{}
	writeOps      map[memmodel.Addr][]trace.WriteOp
}

func setsOf(tr *trace.Trace, cs *trace.CritSec) refSets {
	s := refSets{
		reads:    make(map[memmodel.Addr]struct{}),
		writes:   make(map[memmodel.Addr]struct{}),
		writeOps: make(map[memmodel.Addr][]trace.WriteOp),
	}
	for i := cs.AcqEv; i <= cs.RelEv; i++ {
		e := &tr.Events[i]
		if e.Thread != cs.Thread {
			continue
		}
		switch e.Kind {
		case trace.KRead:
			s.reads[e.Addr] = struct{}{}
		case trace.KWrite:
			s.writes[e.Addr] = struct{}{}
			s.writeOps[e.Addr] = append(s.writeOps[e.Addr], e.Op)
		}
	}
	return s
}

func intersects(a, b map[memmodel.Addr]struct{}) bool {
	for x := range a {
		if _, ok := b[x]; ok {
			return true
		}
	}
	return false
}

// classifyRef is Algorithm 1 as three set intersections — Classify
// before it became a merge.
func classifyRef(s1, s2 refSets) Category {
	switch {
	case len(s1.reads)+len(s1.writes) == 0 || len(s2.reads)+len(s2.writes) == 0:
		return NullLock
	case len(s1.writes) == 0 && len(s2.writes) == 0:
		return ReadRead
	case !intersects(s1.reads, s2.writes) && !intersects(s1.writes, s2.reads) && !intersects(s1.writes, s2.writes):
		return DisjointWrite
	default:
		return TLCP
	}
}

// regionPairKey is the allocating reference for the identifier's
// scratch-built pairKey: the two code regions plus the write-op
// signature of the conflicting addresses.
func regionPairKey(c1, c2 *trace.CritSec, s1, s2 refSets) string {
	return c1.Region.String() + "|" + c2.Region.String() + "|" + conflictSig(s1, s2)
}

// conflictSig is the allocating reference for the signature classify
// collects: per conflicting address, how each side touches it — r=read,
// and one letter per write-op kind (s/a/&/|), deduplicated.
func conflictSig(c1, c2 refSets) string {
	touch := func(cs refSets, a memmodel.Addr) string {
		var b []byte
		if _, ok := cs.reads[a]; ok {
			b = append(b, 'r')
		}
		seen := [4]bool{}
		for _, op := range cs.writeOps[a] {
			if !seen[op] {
				seen[op] = true
				b = append(b, "sa&|"[op])
			}
		}
		return string(b)
	}
	conflicting := make(map[memmodel.Addr]struct{})
	for a := range c1.writes {
		if _, ok := c2.writes[a]; ok {
			conflicting[a] = struct{}{}
		}
		if _, ok := c2.reads[a]; ok {
			conflicting[a] = struct{}{}
		}
	}
	for a := range c2.writes {
		if _, ok := c1.reads[a]; ok {
			conflicting[a] = struct{}{}
		}
	}
	addrs := make([]memmodel.Addr, 0, len(conflicting))
	for a := range conflicting {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var b []byte
	for _, a := range addrs {
		b = append(b, touch(c1, a)...)
		b = append(b, ':')
		b = append(b, touch(c2, a)...)
		b = append(b, ';')
	}
	return string(b)
}

// keyOf builds a pair's memo key the way scan does: classify leaves the
// signature, pairKey prefixes the interned regions.
func (id *identifier) keyOf(c1, c2 *trace.CritSec) []byte {
	_, id.sig = classify(c1, c2, id.sig[:0])
	return id.pairKey(id.intern(c1.Region), id.intern(c2.Region))
}

// reversedReplayEqual is the one-pair form of the identifier method: it
// builds fresh sweep state per call instead of batching the prefix walk
// across a lock group's pairs.
func reversedReplayEqual(tr *trace.Trace, c1, c2 *trace.CritSec) bool {
	id := newIdentifier(tr, nil, Options{}, nil)
	return id.reversedReplayEqual(c1, c2)
}

// TestSweepMatchesNaiveReplay drives the batched sweep through every
// conflicting pair of several recorded workloads — in the identifier's
// own visit order, so the incremental advance is exercised — and checks
// each verdict against the naive full-walk oracle.
func TestSweepMatchesNaiveReplay(t *testing.T) {
	for _, app := range []string{"openldap", "mysql", "pbzip2"} {
		t.Run(app, func(t *testing.T) {
			a := workload.MustGet(app)
			p := a.Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7})
			res := sim.Run(p, sim.Config{Seed: 7})
			tr, css := res.Trace, res.Trace.ExtractCS()

			id := newIdentifier(tr, nil, Options{}, nil)
			pairs := 0
			for _, g := range SortedLockGroups(css) {
				for i, c1 := range g {
					for _, c2 := range g[i+1:] {
						if c1.Thread == c2.Thread || Classify(c1, c2) != TLCP {
							continue
						}
						pairs++
						got := id.reversedReplayEqual(c1, c2)
						want := refReversedReplayEqual(tr, c1, c2)
						if got != want {
							t.Fatalf("pair (cs%d, cs%d): sweep=%v oracle=%v", c1.ID, c2.ID, got, want)
						}
					}
				}
			}
			if pairs == 0 {
				t.Fatalf("%s produced no conflicting pairs; fixture lost its teeth", app)
			}
			if id.sweep.rebuilds > len(SortedLockGroups(css))+1 {
				t.Errorf("sweep rebuilt %d times for %d lock groups — not incremental",
					id.sweep.rebuilds, len(SortedLockGroups(css)))
			}
		})
	}
}

// skipPairTrace builds a trace where thread 0's critical section spans
// a KSkip delta restoring y=10 between two commutative adds. The adds
// alone commute (both orders end at y=3), but the skip's absolute
// restore does not: c1-then-c2 ends at 12, c2-then-c1 at 10. Ignoring
// in-section skip deltas — the old execPairLocal bug — misclassifies
// this pair as benign.
func skipPairTrace() (*trace.Trace, []*trace.CritSec) {
	tr := trace.New("skip-pair", 2)
	const y = memmodel.Addr(2)
	l := trace.LockID(1)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KThreadStart})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KThreadStart})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KLockAcq, Lock: l, Time: 10})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: y, Value: 1, Op: trace.WAdd, Time: 20})
	tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KSkip, Cost: 5, Time: 25}, trace.EventExt{Delta: memmodel.Snapshot{y: 10}})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KLockRel, Lock: l, Time: 30})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KLockAcq, Lock: l, Time: 40})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: y, Value: 2, Op: trace.WAdd, Time: 50})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KLockRel, Lock: l, Time: 60})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KThreadEnd, Time: 70})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KThreadEnd, Time: 70})
	tr.TotalTime = 70
	return tr, tr.ExtractCS()
}

// TestSkipDeltaInsideCriticalSection pins the execPairLocal bugfix: a
// skip event's delta inside [AcqEv, RelEv] participates in the replayed
// pair, exactly as the prefix walk applies it outside.
func TestSkipDeltaInsideCriticalSection(t *testing.T) {
	tr, css := skipPairTrace()
	if len(css) != 2 {
		t.Fatalf("extracted %d CSs, want 2", len(css))
	}
	c1, c2 := css[0], css[1]
	if Classify(c1, c2) != TLCP {
		t.Fatalf("fixture pair classifies %v, want conflicting", Classify(c1, c2))
	}
	if reversedReplayEqual(tr, c1, c2) {
		t.Fatal("orders judged equal: the skip delta inside the critical section was ignored")
	}
	rep := Identify(tr, css, Options{})
	if rep.Counts[TLCP] != 1 || rep.Counts[Benign] != 0 {
		t.Fatalf("counts = %v, want the skip pair reported as true contention", rep.Counts)
	}

	// Remove the skip's restore and the adds commute again: the same
	// machinery must call the pair benign, proving the TLCP verdict above
	// comes from the delta and not from the adds.
	tr2, css2 := skipPairTrace()
	tr2.Events[4].Ext = 0
	if !reversedReplayEqual(tr2, css2[0], css2[1]) {
		t.Fatal("commutative adds without a delta judged order-sensitive")
	}
}

// checkPairAgainstReferences compares the merge with the
// three-intersection Algorithm 1, and the scratch-built memo key with the
// allocating reference, on one pair.
func checkPairAgainstReferences(t *testing.T, id *identifier, sets []refSets, c1, c2 *trace.CritSec) {
	t.Helper()
	want := classifyRef(sets[c1.ID], sets[c2.ID])
	if got := Classify(c1, c2); got != want {
		t.Fatalf("Classify(cs%d, cs%d) = %v, reference %v", c1.ID, c2.ID, got, want)
	}
	wantKey := regionPairKey(c1, c2, sets[c1.ID], sets[c2.ID])
	if got := string(id.keyOf(c1, c2)); got != wantKey {
		t.Fatalf("pairKey %q != regionPairKey %q", got, wantKey)
	}
}

func allSetsOf(tr *trace.Trace, css []*trace.CritSec) []refSets {
	sets := make([]refSets, len(css))
	for i, cs := range css {
		sets[i] = setsOf(tr, cs)
	}
	return sets
}

// TestPairKeyMatchesRegionPairKey pins the scratch-built memo key to the
// allocating reference over every same-lock cross-thread pair of the
// example workloads: verdict tables built by either form must
// interoperate byte-for-byte.
func TestPairKeyMatchesRegionPairKey(t *testing.T) {
	for _, app := range []string{"openldap", "mysql", "pbzip2", "transmissionBT"} {
		tr, css := recordedCS(t, app, 4, 7)
		sets := allSetsOf(tr, css)
		id := newIdentifier(tr, nil, Options{}, nil)
		checked := 0
		for _, g := range SortedLockGroups(css) {
			for i, c1 := range g {
				for _, c2 := range g[i+1:] {
					if c1.Thread == c2.Thread {
						continue
					}
					checked++
					checkPairAgainstReferences(t, id, sets, c1, c2)
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no pairs checked", app)
		}
	}
}

// TestMergeMatchesSetReferences runs the same two comparisons on every
// pair identification enumerates, over every registered workload.
func TestMergeMatchesSetReferences(t *testing.T) {
	for _, app := range workload.All() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				p := app.Build(workload.Config{Threads: threads, Scale: 0.1, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				css := tr.ExtractCS()
				sets := allSetsOf(tr, css)
				id := newIdentifier(tr, nil, Options{}, nil)
				for _, p := range Identify(tr, css, Options{}).Pairs {
					c1, c2 := css[p.C1], css[p.C2]
					checkPairAgainstReferences(t, id, sets, c1, c2)
					if alg1 := Classify(c1, c2); (alg1 == TLCP) != (p.Cat == TLCP || p.Cat == Benign) || (alg1 != TLCP && alg1 != p.Cat) {
						t.Fatalf("%s: pair (cs%d, cs%d) reported %v, Algorithm 1 says %v", app.Name, p.C1, p.C2, p.Cat, alg1)
					}
				}
			}
		}
	}
}

// TestBenignLookupsAllocateNothing pins the path nearly every conflicting
// pair takes — a class this run has seen, whether it replayed the class
// or found it in the shared verdict table — at zero allocations and no
// key built: the class memo finds it by hash and signature.
func TestBenignLookupsAllocateNothing(t *testing.T) {
	tr, css := recordedCS(t, "openldap", 4, 7)
	table, rep := BuildVerdictTable(tr, css, Options{})
	var c1, c2 *trace.CritSec
	for _, p := range rep.Pairs {
		if Classify(css[p.C1], css[p.C2]) == TLCP {
			c1, c2 = css[p.C1], css[p.C2]
			break
		}
	}
	if c1 == nil {
		t.Fatal("fixture has no conflicting pair")
	}

	memo := newIdentifier(tr, css, Options{}, nil)
	benign := func(id *identifier) bool { // a conflicting pair as scan handles it
		_, id.sig = classify(c1, c2, id.sig[:0])
		return id.benign(member{cs: c1, region: id.intern(c1.Region)}, member{cs: c2, region: id.intern(c2.Region)})
	}
	want := benign(memo) // replays, and memoises the class
	if memo.rep.ReversedReplays != 1 {
		t.Fatalf("first sight performed %d replays, want 1", memo.rep.ReversedReplays)
	}
	hit := newIdentifier(tr, css, Options{}, table)
	if benign(hit) != want { // the table's verdict, memoised
		t.Fatal("the table's verdict differs from the replay's")
	}
	for name, id := range map[string]*identifier{"replayed class": memo, "table class": hit} {
		keys := id.keys
		if allocs := testing.AllocsPerRun(20, func() {
			if benign(id) != want {
				t.Fatalf("%s: verdict changed", name)
			}
		}); allocs != 0 {
			t.Errorf("%s: benign allocates %v times per pair, want 0", name, allocs)
		}
		if id.keys != keys {
			t.Errorf("%s: lookups built %d keys, want none", name, id.keys-keys)
		}
	}
	if memo.rep.ReversedReplays != 1 || hit.rep.ReversedReplays != 0 {
		t.Fatalf("lookups replayed: memo %d (want 1), table %d (want 0)",
			memo.rep.ReversedReplays, hit.rep.ReversedReplays)
	}
}

// TestPrefixSweeperIncremental checks the sweeper against the naive
// prefix at every event index, forward then after a regression.
func TestPrefixSweeperIncremental(t *testing.T) {
	tr, _ := skipPairTrace()
	s := newPrefixSweeper(tr)
	for i := int32(0); i <= int32(len(tr.Events)); i++ {
		got := s.stateAt(i)
		want := refPrefixState(tr, i)
		if len(got) != len(want) {
			t.Fatalf("stateAt(%d): %v, want %v", i, got, want)
		}
		for a, v := range want {
			if got[a] != v {
				t.Fatalf("stateAt(%d)[%v] = %d, want %d", i, a, got[a], v)
			}
		}
	}
	if s.rebuilds != 1 {
		t.Fatalf("forward sweep rebuilt %d times, want 1", s.rebuilds)
	}
	got := s.stateAt(3) // regression: must rebuild and still be right
	want := refPrefixState(tr, 3)
	for a, v := range want {
		if got[a] != v {
			t.Fatalf("post-regression stateAt(3)[%v] = %d, want %d", a, got[a], v)
		}
	}
	if s.rebuilds != 2 {
		t.Fatalf("regression rebuilt %d times total, want 2", s.rebuilds)
	}
}

// BenchmarkReversedReplayPairs isolates the reversed-replay hot path
// the identification benchmark is built on: every conflicting pair of a
// recorded mysql trace replayed in both orders through the batched
// sweep + copy-on-write overlay. One op = one full pass over all pairs
// with a fresh identifier, so the sweep's incremental advance (not the
// memo cache) is what's measured.
func BenchmarkReversedReplayPairs(b *testing.B) {
	a := workload.MustGet("mysql")
	p := a.Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7})
	res := sim.Run(p, sim.Config{Seed: 7})
	tr, css := res.Trace, res.Trace.ExtractCS()
	tr.Warm()
	groups := SortedLockGroups(css)

	b.ReportAllocs()
	b.ResetTimer()
	var pairs int
	for i := 0; i < b.N; i++ {
		id := newIdentifier(tr, nil, Options{}, nil)
		pairs = 0
		for _, g := range groups {
			for j, c1 := range g {
				for _, c2 := range g[j+1:] {
					if c1.Thread == c2.Thread || Classify(c1, c2) != TLCP {
						continue
					}
					id.reversedReplayEqual(c1, c2)
					pairs++
				}
			}
		}
	}
	b.ReportMetric(float64(pairs), "pairs")
}
