package ulcp

import (
	"encoding/json"
	"reflect"
	"testing"

	"perfplay/internal/trace"
)

// openldapFixture records the contended openldap workload — the ROADMAP
// fixture where a per-lock memo re-pays replays for region pairs that
// recur under many locks.
func openldapFixture(t *testing.T) (*trace.Trace, []*trace.CritSec) {
	t.Helper()
	return recordedCS(t, "openldap", 4, 7)
}

// TestVerdictTableReducesReplays pins the reversed-replay counters on
// the openldap fixture: table-less shards, each with its own per-lock
// memo, re-replay recurring region pairs (39 replays), while one shared
// table pays each class once (24) and the table-backed shards pay
// nothing. The exact values are deterministic functions of the fixture;
// a change means the walk or the memo key changed and must be
// deliberate.
func TestVerdictTableReducesReplays(t *testing.T) {
	tr, css := openldapFixture(t)
	opts := Options{}

	perLock := mergeShards(tr, css, opts, nil).ReversedReplays
	table, rep := BuildVerdictTable(tr, css, opts)
	shardReplays := mergeShards(tr, css, opts, table).ReversedReplays

	if shardReplays != 0 {
		t.Fatalf("table-backed shards performed %d replays, want 0", shardReplays)
	}
	// Pin the exact trajectory (the ROADMAP's measured 24 → 39).
	if table.Replays != 24 || perLock != 39 {
		t.Fatalf("replay counters moved: table=%d (want 24), per-lock=%d (want 39)",
			table.Replays, perLock)
	}
	if rep.ReversedReplays != table.Replays {
		t.Fatalf("build report counts %d replays, table %d", rep.ReversedReplays, table.Replays)
	}
}

// shardsMatchIdentify checks the three ways one classification is
// produced — Identify, the table build pass (the pipeline's fresh-table
// path), and table-backed shards merged in lock order (its cached-table
// path) — against each other, and that the shards paid no replay.
func shardsMatchIdentify(t *testing.T, tr *trace.Trace, css []*trace.CritSec, opts Options) *VerdictTable {
	t.Helper()
	serial := Identify(tr, css, opts)
	table, buildRep := BuildVerdictTable(tr, css, opts)
	merged := mergeShards(tr, css, opts, table)

	sameClassification(t, "table-backed shards", merged, serial)
	sameClassification(t, "build-pass report", buildRep, serial)
	if merged.ReversedReplays != 0 {
		t.Fatalf("table-backed shards performed %d replays, want 0", merged.ReversedReplays)
	}
	if serial.ReversedReplays != table.Replays {
		t.Fatalf("Identify spent %d replays, the table build %d", serial.ReversedReplays, table.Replays)
	}
	return table
}

// TestVerdictTableShardsMatchIdentify: shards consulting the shared
// table reproduce Identify exactly — same pairs in the same order, same
// counts and causal edges — because the table carries Identify's own
// verdicts, including the early stops they imply. This is what makes a
// distributed run mergeable into a byte-identical report.
func TestVerdictTableShardsMatchIdentify(t *testing.T) {
	everyWorkload(t, func(t *testing.T, tr *trace.Trace, css []*trace.CritSec) {
		shardsMatchIdentify(t, tr, css, Options{})
	})

	// A binding budget is where a per-lock budget would diverge from the
	// per-trace one: the table must carry the budget-defaulted verdicts
	// too, so the re-derivation still agrees without replaying.
	t.Run("binding-budget", func(t *testing.T) {
		tr, css := openldapFixture(t)
		table := shardsMatchIdentify(t, tr, css, Options{maxReversedReplays: 3})
		if table.Replays != 3 {
			t.Fatalf("table spent %d replays under a budget of 3 — the budget did not bind", table.Replays)
		}
	})
}

// TestVerdictTableJSONRoundTrip: the table survives the JSON transport
// used by shard requests.
func TestVerdictTableJSONRoundTrip(t *testing.T) {
	tr, css := openldapFixture(t)
	table, _ := BuildVerdictTable(tr, css, Options{})
	data, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var back VerdictTable
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, table) {
		t.Fatal("verdict table changed across JSON round trip")
	}

	groups := SortedLockGroups(css)
	want := IdentifyShardWithVerdicts(tr, groups[0], Options{}, table)
	got := IdentifyShardWithVerdicts(tr, groups[0], Options{}, &back)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("shard report differs under round-tripped table")
	}
}
