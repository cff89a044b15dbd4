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
			for a, v := range e.Delta {
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
				for a, v := range e.Delta {
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

// regionPairKey is the allocating reference for the identifier's
// scratch-built pairKey: the two code regions plus the write-op
// signature of the conflicting addresses.
func regionPairKey(c1, c2 *trace.CritSec) string {
	return c1.Region.String() + "|" + c2.Region.String() + "|" + conflictSig(c1, c2)
}

// conflictSig is the allocating reference for appendConflictSig: per
// conflicting address, how each side touches it — r=read, and one
// letter per write-op kind (s/a/&/|), deduplicated.
func conflictSig(c1, c2 *trace.CritSec) string {
	touch := func(cs *trace.CritSec, a memmodel.Addr) string {
		var b []byte
		if _, ok := cs.Reads[a]; ok {
			b = append(b, 'r')
		}
		seen := [4]bool{}
		for _, op := range cs.WriteOps[a] {
			if !seen[op] {
				seen[op] = true
				b = append(b, "sa&|"[op])
			}
		}
		return string(b)
	}
	conflicting := make(map[memmodel.Addr]struct{})
	for a := range c1.Writes {
		if _, ok := c2.Writes[a]; ok {
			conflicting[a] = struct{}{}
		}
		if _, ok := c2.Reads[a]; ok {
			conflicting[a] = struct{}{}
		}
	}
	for a := range c2.Writes {
		if _, ok := c1.Reads[a]; ok {
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

// reversedReplayEqual is the one-pair form of the identifier method: it
// builds fresh sweep state per call instead of batching the prefix walk
// across a lock group's pairs.
func reversedReplayEqual(tr *trace.Trace, c1, c2 *trace.CritSec) bool {
	id := &identifier{tr: tr}
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

			id := &identifier{tr: tr}
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
	tr.Append(trace.Event{Thread: 0, Kind: trace.KSkip, Delta: memmodel.Snapshot{y: 10}, Cost: 5, Time: 25})
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
	tr2.Events[4].Delta = nil
	if !reversedReplayEqual(tr2, css2[0], css2[1]) {
		t.Fatal("commutative adds without a delta judged order-sensitive")
	}
}

// TestPairKeyMatchesRegionPairKey pins the scratch-built memo key to the
// allocating reference over every same-lock cross-thread pair of the
// example workloads: verdict tables built by either form must
// interoperate byte-for-byte.
func TestPairKeyMatchesRegionPairKey(t *testing.T) {
	for _, app := range []string{"openldap", "mysql", "pbzip2", "transmissionBT"} {
		a := workload.MustGet(app)
		p := a.Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7})
		res := sim.Run(p, sim.Config{Seed: 7})
		css := res.Trace.ExtractCS()

		id := &identifier{tr: res.Trace}
		checked := 0
		for _, g := range SortedLockGroups(css) {
			for i, c1 := range g {
				for _, c2 := range g[i+1:] {
					if c1.Thread == c2.Thread {
						continue
					}
					checked++
					if got, want := string(id.pairKey(c1, c2)), regionPairKey(c1, c2); got != want {
						t.Fatalf("%s: pairKey %q != regionPairKey %q", app, got, want)
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no pairs checked", app)
		}
	}
}

// TestBenignLookupsAllocateNothing pins the two paths nearly every
// conflicting pair takes — a class this run already memoised, and a class
// the shared verdict table holds — at zero allocations: the key is looked
// up straight from the scratch bytes, and becomes a string only when a
// new class is memoised.
func TestBenignLookupsAllocateNothing(t *testing.T) {
	tr, css := recordedCS(t, "openldap", 4, 7)
	table, rep := BuildVerdictTable(tr, css, Options{})
	var c1, c2 *trace.CritSec
	for _, p := range rep.Pairs {
		if Classify(p.C1, p.C2) == TLCP {
			c1, c2 = p.C1, p.C2
			break
		}
	}
	if c1 == nil {
		t.Fatal("fixture has no conflicting pair")
	}

	memo := newIdentifier(tr, css, Options{}, nil)
	want := memo.benign(c1, c2) // replays, and memoises the class
	if memo.rep.ReversedReplays != 1 {
		t.Fatalf("first sight performed %d replays, want 1", memo.rep.ReversedReplays)
	}
	hit := newIdentifier(tr, css, Options{}, table)
	hit.benign(c1, c2) // sizes the scratch
	for name, id := range map[string]*identifier{"memoised class": memo, "table hit": hit} {
		if allocs := testing.AllocsPerRun(20, func() {
			if id.benign(c1, c2) != want {
				t.Fatalf("%s: verdict changed", name)
			}
		}); allocs != 0 {
			t.Errorf("%s: benign allocates %v times per pair, want 0", name, allocs)
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
		id := &identifier{tr: tr}
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
