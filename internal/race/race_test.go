package race

import (
	"testing"

	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

func TestDetectUnsyncedWriteWrite(t *testing.T) {
	tr := trace.New("r", 2)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 1, Value: 5})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 1, Value: 6})
	races := Detect(tr, nil, nil, 0)
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1", len(races))
	}
	if !races[0].WriteWrite {
		t.Error("race should be write/write")
	}
}

func TestDetectReadWrite(t *testing.T) {
	tr := trace.New("r", 2)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 1, Value: 5})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KRead, Addr: 1})
	races := Detect(tr, nil, nil, 0)
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1", len(races))
	}
	if races[0].WriteWrite {
		t.Error("race should be read/write")
	}
}

func TestLockOrderingSuppressesRace(t *testing.T) {
	tr := trace.New("r", 2)
	l := trace.LockID(1)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KLockAcq, Lock: l})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 1, Value: 5})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KLockRel, Lock: l})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KLockAcq, Lock: l})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 1, Value: 6})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KLockRel, Lock: l})
	if races := Detect(tr, nil, nil, 0); len(races) != 0 {
		t.Fatalf("locked accesses raced: %v", races)
	}
}

func TestDifferentLocksDoNotOrder(t *testing.T) {
	tr := trace.New("r", 2)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KLockAcq, Lock: 1})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 9, Value: 5})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KLockRel, Lock: 1})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KLockAcq, Lock: 2})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 9, Value: 6})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KLockRel, Lock: 2})
	if races := Detect(tr, nil, nil, 0); len(races) != 1 {
		t.Fatalf("races = %d, want 1 (different locks give no ordering)", len(races))
	}
}

// TestLocksetOrderingSuppressesRace: under a plan, a section's lock
// operations act on its lockset and nothing else. Two sections of
// different original locks that share an auxiliary member are ordered;
// the same two sections with empty locksets are not, even where they
// shared one original lock.
func TestLocksetOrderingSuppressesRace(t *testing.T) {
	aux := trace.AuxLockBase + 1
	sections := func(l0, l1 trace.LockID) (*trace.Trace, []int32, []int32) {
		tr := trace.New("r", 2)
		a0 := tr.Append(trace.Event{Thread: 0, Kind: trace.KLockAcq, Lock: l0})
		tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 3, Value: 5})
		r0 := tr.Append(trace.Event{Thread: 0, Kind: trace.KLockRel, Lock: l0})
		a1 := tr.Append(trace.Event{Thread: 1, Kind: trace.KLockAcq, Lock: l1})
		tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 3, Value: 6})
		r1 := tr.Append(trace.Event{Thread: 1, Kind: trace.KLockRel, Lock: l1})
		return tr, []int32{a0, a1}, []int32{r0, r1}
	}
	tr, acq, rel := sections(1, 2)
	if races := Detect(tr, nil, nil, 0); len(races) != 1 {
		t.Fatalf("races = %d as recorded, want 1 (different locks give no ordering)", len(races))
	}
	shared := &trace.Plan{Acq: acq, Rel: rel, Off: []int32{0, 1, 2},
		Locks: []trace.LockID{aux, aux}, Sources: []int32{-1, rel[0]}}
	if races := Detect(tr, shared, nil, 0); len(races) != 0 {
		t.Fatalf("lockset-protected accesses raced: %v", races)
	}
	tr, acq, rel = sections(1, 1)
	removed := &trace.Plan{Acq: acq, Rel: rel, Off: []int32{0, 0, 0}}
	if races := Detect(tr, removed, nil, 0); len(races) != 1 {
		t.Fatalf("races = %d with both sections' locks removed, want 1", len(races))
	}
}

func TestConstraintOrderingSuppressesRace(t *testing.T) {
	tr := trace.New("r", 2)
	w0 := tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 4, Value: 5})
	w1 := tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 4, Value: 6})
	ordered := []trace.Constraint{{After: w0, Before: w1}}
	tr.Constraints = ordered
	if races := Detect(tr, nil, nil, 0); len(races) != 0 {
		t.Fatalf("constraint-ordered accesses raced: %v", races)
	}
	// A plan's constraints order as the recording's do.
	tr.Constraints = nil
	if races := Detect(tr, &trace.Plan{Off: []int32{0}, Constraints: ordered}, nil, 0); len(races) != 0 {
		t.Fatalf("accesses ordered by a plan constraint raced: %v", races)
	}
}

func TestBarrierOrderingSuppressesRace(t *testing.T) {
	tr := trace.New("r", 2)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 5, Value: 1})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KBarrier, Lock: 1, Value: 0})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KBarrier, Lock: 1, Value: 0})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 5, Value: 2})
	if races := Detect(tr, nil, nil, 0); len(races) != 0 {
		t.Fatalf("barrier-separated accesses raced: %v", races)
	}
}

func TestRaceWithoutBarrierDetected(t *testing.T) {
	// Same as above without the barrier: must race.
	tr := trace.New("r", 2)
	tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 5, Value: 1})
	tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 5, Value: 2})
	if races := Detect(tr, nil, nil, 0); len(races) != 1 {
		t.Fatal("unsynchronized writes must race")
	}
}

func TestLimitAndDedup(t *testing.T) {
	tr := trace.New("r", 2)
	site := tr.Sites.Intern(trace.Site{File: "x.c", Line: 1})
	for i := 0; i < 5; i++ {
		tr.Append(trace.Event{Thread: 0, Kind: trace.KWrite, Addr: 7, Value: int64(i), Site: site})
		tr.Append(trace.Event{Thread: 1, Kind: trace.KWrite, Addr: 7, Value: int64(i + 10), Site: site})
	}
	// All conflicts share (addr, site pair): deduplicated to one report.
	races := Detect(tr, nil, nil, 0)
	if len(races) != 1 {
		t.Fatalf("races = %d, want 1 after dedup", len(races))
	}
	if got := races[0].String(); got == "" {
		t.Error("empty race string")
	}
}

func TestOrderByStart(t *testing.T) {
	starts := []vtime.Time{30, 10, 20, 10}
	order := OrderByStart(starts)
	want := []int32{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
