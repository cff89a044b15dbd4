package ulcp

import (
	"encoding/json"
	"reflect"
	"testing"

	"perfplay/internal/trace"
)

// wireCS builds a minimal critical section with just an identity —
// Rehydrate only resolves pointers by ID, it never inspects the body.
func wireCS(id int) *trace.CritSec { return &trace.CritSec{ID: id} }

// TestWireReportRoundTripShapes drives Wire → JSON → Rehydrate across
// the edge shapes the cluster ships (the live-fixture round trip lives
// in verdict_test.go): empty reports, single- and multi-pair reports
// with causal edges, and truncation/replay counters.
func TestWireReportRoundTripShapes(t *testing.T) {
	cs := map[int]*trace.CritSec{0: wireCS(0), 1: wireCS(1), 2: wireCS(2)}
	cases := []struct {
		name string
		rep  *Report
	}{
		{"empty", &Report{Counts: [NumCategories]int{}}},
		{"one-pair", &Report{
			Counts: [NumCategories]int{ReadRead: 1},
			Pairs:  []Pair{{C1: cs[0], C2: cs[1], Cat: ReadRead}},
		}},
		{"full", &Report{
			Counts: [NumCategories]int{NullLock: 1, TLCP: 1, Benign: 1},
			Pairs: []Pair{
				{C1: cs[0], C2: cs[1], Cat: NullLock},
				{C1: cs[1], C2: cs[2], Cat: TLCP},
				{C1: cs[0], C2: cs[2], Cat: Benign},
			},
			CausalEdges:     []Edge{{From: 0, To: 2}},
			Truncated:       3,
			ReversedReplays: 24,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.rep.Wire())
			if err != nil {
				t.Fatal(err)
			}
			var w WireReport
			if err := json.Unmarshal(data, &w); err != nil {
				t.Fatal(err)
			}
			got, err := w.Rehydrate(CSByID([]*trace.CritSec{cs[0], cs[1], cs[2]}))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Pairs) != len(tc.rep.Pairs) {
				t.Fatalf("rehydrated %d pairs, want %d", len(got.Pairs), len(tc.rep.Pairs))
			}
			for i := range got.Pairs {
				if got.Pairs[i].C1.ID != tc.rep.Pairs[i].C1.ID ||
					got.Pairs[i].C2.ID != tc.rep.Pairs[i].C2.ID ||
					got.Pairs[i].Cat != tc.rep.Pairs[i].Cat {
					t.Fatalf("pair %d: got %+v", i, got.Pairs[i])
				}
			}
			if !reflect.DeepEqual(got.Counts, tc.rep.Counts) {
				t.Fatalf("counts %v, want %v", got.Counts, tc.rep.Counts)
			}
			if !reflect.DeepEqual(got.Counts, w.Tally()) {
				t.Fatalf("Tally %v disagrees with rehydrated counts %v", w.Tally(), got.Counts)
			}
			if got.Truncated != tc.rep.Truncated || got.ReversedReplays != tc.rep.ReversedReplays ||
				!reflect.DeepEqual(got.CausalEdges, tc.rep.CausalEdges) {
				t.Fatalf("metadata differs: %+v", got)
			}
		})
	}
}

// TestWireReportUnknownFieldTolerance: decoding must ignore fields a
// newer (or just different) node added — wire compatibility across a
// mixed-version cluster — while unknown CS IDs remain a hard error,
// never a silent drop.
func TestWireReportUnknownFieldTolerance(t *testing.T) {
	var w WireReport
	blob := `{"pairs":[{"c1":0,"c2":1,"cat":1,"confidence":0.9}],"future_field":{"x":1},"reversed_replays":2}`
	if err := json.Unmarshal([]byte(blob), &w); err != nil {
		t.Fatalf("unknown fields broke decoding: %v", err)
	}
	rep, err := w.Rehydrate(CSByID([]*trace.CritSec{wireCS(0), wireCS(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != 1 || rep.Pairs[0].Cat != ReadRead || rep.ReversedReplays != 2 {
		t.Fatalf("rehydrated %+v", rep)
	}

	if _, err := w.Rehydrate(CSByID([]*trace.CritSec{wireCS(0)})); err == nil {
		t.Fatal("unknown CS ID rehydrated without error")
	}

	// Counts is an array indexed by Category: a category no node
	// produces is peer input to refuse, not an index.
	for _, cat := range []Category{-1, NumCategories, 42} {
		w.Pairs[0].Cat = cat
		if _, err := w.Rehydrate(CSByID([]*trace.CritSec{wireCS(0), wireCS(1)})); err == nil {
			t.Fatalf("category %d rehydrated without error", cat)
		}
		if got := w.Tally(); got != [NumCategories]int{} {
			t.Fatalf("category %d tallied: %v", cat, got)
		}
	}
}

// TestCSByIDDuplicateIDs pins CSByID's behavior when two critical
// sections claim the same ID (a corrupted or mismatched extraction):
// the later entry wins, so Rehydrate resolves deterministically against
// exactly one of them rather than depending on map iteration order.
func TestCSByIDDuplicateIDs(t *testing.T) {
	first, second := wireCS(7), wireCS(7)
	byID := CSByID([]*trace.CritSec{first, second})
	if len(byID) != 1 {
		t.Fatalf("index holds %d entries for one ID, want 1", len(byID))
	}
	if byID[7] != second {
		t.Fatal("duplicate ID did not resolve to the later critical section")
	}
}

// TestWireTallyAndNumULCPs: the count helpers importers use on wire
// reports they never rehydrate.
func TestWireTallyAndNumULCPs(t *testing.T) {
	w := &WireReport{Pairs: []WirePair{
		{C1: 0, C2: 1, Cat: NullLock},
		{C1: 1, C2: 2, Cat: ReadRead},
		{C1: 2, C2: 3, Cat: ReadRead},
		{C1: 3, C2: 4, Cat: TLCP},
	}}
	want := [NumCategories]int{NullLock: 1, ReadRead: 2, TLCP: 1}
	if got := w.Tally(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tally = %v, want %v", got, want)
	}
	if got := w.NumULCPs(); got != 3 {
		t.Fatalf("NumULCPs = %d, want 3", got)
	}
	if got := (&WireReport{}).NumULCPs(); got != 0 {
		t.Fatalf("empty NumULCPs = %d, want 0", got)
	}
}

// FuzzWireReportDecode: the cluster's wire decode path (peer cache
// imports and shard responses) must never panic on arbitrary JSON, and
// whatever decodes must rehydrate either cleanly or with an error —
// and a clean rehydration must agree with the wire tally.
func FuzzWireReportDecode(f *testing.F) {
	seed, _ := json.Marshal((&Report{
		Counts: [NumCategories]int{ReadRead: 1, TLCP: 1},
		Pairs: []Pair{
			{C1: wireCS(0), C2: wireCS(1), Cat: ReadRead},
			{C1: wireCS(1), C2: wireCS(2), Cat: TLCP},
		},
		CausalEdges: []Edge{{From: 0, To: 1}},
	}).Wire())
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"pairs":[{"c1":-1,"c2":99,"cat":42}]}`))
	f.Add([]byte(`{"pairs":[{"c1":0,"c2":1,"cat":42},{"c1":1,"c2":2,"cat":-3}]}`))
	f.Add([]byte(`not json`))
	byID := CSByID([]*trace.CritSec{wireCS(0), wireCS(1), wireCS(2)})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireReport
		if err := json.Unmarshal(data, &w); err != nil {
			return
		}
		rep, err := w.Rehydrate(byID)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(rep.Counts, w.Tally()) {
			t.Fatalf("rehydrated counts %v disagree with tally %v", rep.Counts, w.Tally())
		}
	})
}
