package trace_test

import (
	"fmt"
	"reflect"
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// refCS is a critical section as ExtractCS built it before the sorted
// access lists: three maps per section.
type refCS struct {
	ID           int
	Thread       int32
	Lock         trace.LockID
	AcqEv, RelEv int32
	Start, End   vtime.Time
	SeqInLock    int
	Reads        map[memmodel.Addr]struct{}
	Writes       map[memmodel.Addr]struct{}
	WriteOps     map[memmodel.Addr][]trace.WriteOp
	Region       trace.Region
}

// extractRef is the map-based ExtractCS the slab-and-arena one replaced,
// kept as its oracle.
func extractRef(tr *trace.Trace) []*refCS {
	var out []*refCS
	open := make([]map[trace.LockID]*refCS, tr.NumThreads)
	for i := range open {
		open[i] = make(map[trace.LockID]*refCS)
	}
	seq := make(map[trace.LockID]int)
	sites := tr.Sites
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KLockAcq:
			cs := &refCS{
				ID:        len(out),
				Thread:    e.Thread,
				Lock:      e.Lock,
				AcqEv:     int32(i),
				RelEv:     -1,
				Start:     e.Time,
				SeqInLock: seq[e.Lock],
				Reads:     make(map[memmodel.Addr]struct{}),
				Writes:    make(map[memmodel.Addr]struct{}),
				WriteOps:  make(map[memmodel.Addr][]trace.WriteOp),
			}
			if sites != nil {
				cs.Region = cs.Region.Extend(sites.At(e.Site))
			}
			seq[e.Lock]++
			open[e.Thread][e.Lock] = cs
			out = append(out, cs)
		case trace.KLockRel:
			if cs := open[e.Thread][e.Lock]; cs != nil {
				cs.RelEv = int32(i)
				cs.End = e.Time
				if sites != nil {
					cs.Region = cs.Region.Extend(sites.At(e.Site))
				}
				delete(open[e.Thread], e.Lock)
			}
		case trace.KRead:
			for _, cs := range open[e.Thread] {
				cs.Reads[e.Addr] = struct{}{}
				if sites != nil {
					cs.Region = cs.Region.Extend(sites.At(e.Site))
				}
			}
		case trace.KWrite:
			for _, cs := range open[e.Thread] {
				cs.Writes[e.Addr] = struct{}{}
				cs.WriteOps[e.Addr] = append(cs.WriteOps[e.Addr], e.Op)
				if sites != nil {
					cs.Region = cs.Region.Extend(sites.At(e.Site))
				}
			}
		}
	}
	return out
}

// sameSections compares ExtractCS's output with the reference's: every
// scalar field, and the access list against the three maps.
func sameSections(got []*trace.CritSec, want []*refCS) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d sections, reference has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Thread != w.Thread || g.Lock != w.Lock || g.AcqEv != w.AcqEv || g.RelEv != w.RelEv ||
			g.Start != w.Start || g.End != w.End || g.SeqInLock != w.SeqInLock || g.Region != w.Region {
			return fmt.Errorf("section %d: %+v, reference %+v", i, *g, *w)
		}
		if int(g.NumReads) != len(w.Reads) || int(g.NumWrites) != len(w.Writes) {
			return fmt.Errorf("section %d: %d reads %d writes, reference %d and %d",
				i, g.NumReads, g.NumWrites, len(w.Reads), len(w.Writes))
		}
		if g.Empty() != (len(w.Reads) == 0 && len(w.Writes) == 0) {
			return fmt.Errorf("section %d: Empty disagrees with the reference sets", i)
		}
		union := len(w.Writes)
		for a := range w.Reads {
			if _, both := w.Writes[a]; !both {
				union++
			}
		}
		if len(g.Acc) != union {
			return fmt.Errorf("section %d: %d addresses, reference touches %d", i, len(g.Acc), union)
		}
		for k, a := range g.Acc {
			if k > 0 && g.Acc[k-1].Addr >= a.Addr {
				return fmt.Errorf("section %d: access list not strictly ascending at %d: %v", i, k, g.Acc)
			}
			_, rd := w.Reads[a.Addr]
			_, wr := w.Writes[a.Addr]
			if a.Touch.Read() != rd || a.Touch.Writes() != wr {
				return fmt.Errorf("section %d addr %d: touch %#x, reference read=%v write=%v", i, a.Addr, a.Touch, rd, wr)
			}
			var first []trace.WriteOp // the reference ops, first-seen de-duplicated
			for _, op := range w.WriteOps[a.Addr] {
				seen := false
				for _, f := range first {
					seen = seen || f == op
				}
				if !seen {
					first = append(first, op)
				}
			}
			ops, n := a.Touch.Ops()
			if !reflect.DeepEqual(ops[:n], first) && (n > 0 || len(first) > 0) {
				return fmt.Errorf("section %d addr %d: ops %v, reference %v", i, a.Addr, ops[:n], first)
			}
		}
	}
	return nil
}

func record(app string, threads int, scale float64, seed int64) *trace.Trace {
	p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: scale, Seed: seed})
	return sim.Run(p, sim.Config{Seed: seed}).Trace
}

// TestExtractCSMatchesMapReference: on every registered workload the
// slab-and-arena extraction equals the map-based one it replaced.
func TestExtractCSMatchesMapReference(t *testing.T) {
	for _, app := range workload.All() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				tr := record(app.Name, threads, 0.1, seed)
				if err := sameSections(tr.ExtractCS(), extractRef(tr)); err != nil {
					t.Fatalf("%s threads=%d seed=%d: %v", app.Name, threads, seed, err)
				}
			}
		}
	}
}

// TestExtractCSHandBuilt covers what no recorded workload does.
func TestExtractCSHandBuilt(t *testing.T) {
	acq := func(th int32, l trace.LockID) trace.Event {
		return trace.Event{Thread: th, Kind: trace.KLockAcq, Lock: l}
	}
	rel := func(th int32, l trace.LockID) trace.Event {
		return trace.Event{Thread: th, Kind: trace.KLockRel, Lock: l}
	}
	rd := func(th int32, a memmodel.Addr) trace.Event {
		return trace.Event{Thread: th, Kind: trace.KRead, Addr: a}
	}
	wr := func(th int32, a memmodel.Addr, op trace.WriteOp) trace.Event {
		return trace.Event{Thread: th, Kind: trace.KWrite, Addr: a, Op: op}
	}
	var many []trace.Event // > 24 accesses, descending with repeats: the non-insertion sort
	many = append(many, acq(0, 1))
	for i := 0; i < 40; i++ {
		many = append(many, wr(0, memmodel.Addr(100-i%30), trace.WriteOp(i%4)), rd(0, memmodel.Addr(100-i%7)))
	}
	many = append(many, rel(0, 1))
	cases := map[string][]trace.Event{
		"nested locks attribute to both sections": {
			acq(0, 1), rd(0, 5), acq(0, 2), wr(0, 9, trace.WAdd), rd(1, 9), rel(0, 2), wr(0, 5, trace.WSet), rel(0, 1),
		},
		"three deep, released out of order": {
			acq(0, 1), acq(0, 2), acq(0, 3), rd(0, 4), rel(0, 1), wr(0, 4, trace.WOr), rel(0, 3), rd(0, 6), rel(0, 2),
		},
		"read and write of one address": {acq(0, 1), rd(0, 7), wr(0, 7, trace.WSet), rd(0, 7), rel(0, 1)},
		"all four ops on one address": {
			acq(0, 1), wr(0, 3, trace.WOr), wr(0, 3, trace.WSet), wr(0, 3, trace.WOr), wr(0, 3, trace.WAnd), wr(0, 3, trace.WAdd), rel(0, 1),
		},
		"left open at end of trace": {acq(0, 1), wr(0, 2, trace.WAdd), acq(1, 1), rd(1, 2), rel(1, 1), rd(0, 8)},
		"same-lock re-acquire keeps the first section's accesses": {
			acq(0, 1), rd(0, 2), wr(0, 3, trace.WSet), acq(0, 1), wr(0, 4, trace.WAdd), rel(0, 1), rd(0, 5), rel(0, 1),
		},
		"release of a lock not held": {rel(0, 1), acq(0, 2), rel(0, 1), rd(0, 2), rel(0, 2)},
		"more than 24 accesses":      many,
		"no events":                  nil,
	}
	for name, events := range cases {
		tr := trace.New(name, 2)
		site := tr.Sites.Intern(trace.Site{File: "h.c", Line: 1})
		for i, e := range events {
			e.Time, e.Site = vtime.Time(10*i), site+trace.SiteID(i%2) // every other site id is unknown
			tr.Append(e)
		}
		if err := sameSections(tr.ExtractCS(), extractRef(tr)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// The order a section first applies its write ops in is part of the
	// packed touch (ulcp's memo key spells it).
	touch := func(ops ...trace.WriteOp) trace.Touch {
		tr := trace.New("order", 1)
		tr.Append(acq(0, 1))
		for _, op := range ops {
			tr.Append(wr(0, 3, op))
		}
		tr.Append(rel(0, 1))
		return tr.ExtractCS()[0].Acc[0].Touch
	}
	a := touch(trace.WSet, trace.WAdd, trace.WAnd, trace.WOr)
	b := touch(trace.WOr, trace.WAnd, trace.WAdd, trace.WSet)
	if opsA, n := a.Ops(); a == b || n != 4 || opsA != [4]trace.WriteOp{trace.WSet, trace.WAdd, trace.WAnd, trace.WOr} {
		t.Errorf("touches %#x and %#x: want four ops each, in two different orders", a, b)
	}
}

// TestExtractCSAllocsIndependentOfSections: one slab, one arena and a
// fixed set of scratch buffers, whatever the trace holds.
func TestExtractCSAllocsIndependentOfSections(t *testing.T) {
	allocs := func(scale float64) (float64, int) {
		tr := record("fluidanimate", 4, scale, 42).Warm() // as the pipeline hands it over
		sections := len(tr.ExtractCS())
		return testing.AllocsPerRun(5, func() { tr.ExtractCS() }), sections
	}
	small, nSmall := allocs(0.25)
	large, nLarge := allocs(0.5)
	if nLarge < nSmall*3/2 {
		t.Fatalf("fixture: %d and %d sections, want the larger trace to hold about twice as many", nSmall, nLarge)
	}
	if small > 16 || large > 16 {
		t.Errorf("ExtractCS allocates %v times over %d sections and %v over %d, want at most 16", small, nSmall, large, nLarge)
	}
	if d := large - small; d > 4 || d < -4 {
		t.Errorf("ExtractCS allocations grow with the trace: %v over %d sections, %v over %d", small, nSmall, large, nLarge)
	}
}
