package ulcp

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// recordedCS records one workload and extracts its critical sections.
func recordedCS(t *testing.T, app string, threads int, seed int64) (*trace.Trace, []*trace.CritSec) {
	t.Helper()
	a := workload.MustGet(app)
	p := a.Build(workload.Config{Threads: threads, Scale: 0.2, Seed: seed})
	res := sim.Run(p, sim.Config{Seed: seed})
	return res.Trace, res.Trace.ExtractCS()
}

// mergeShards runs every sorted lock group through
// IdentifyShardWithVerdicts and merges in group order. The merged
// ReversedReplays is the shards' own total (table replays excluded).
func mergeShards(tr *trace.Trace, css []*trace.CritSec, opts Options, table *VerdictTable) *Report {
	groups := SortedLockGroups(css)
	shards := make([]*Report, len(groups))
	for i, g := range groups {
		shards[i] = IdentifyShardWithVerdicts(tr, g, opts, table)
	}
	return MergeReports(shards...)
}

// sameClassification fails unless got classifies exactly as want: same
// pairs in the same order, same counts and causal edges. An empty list
// equals a nil one.
func sameClassification(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if !slices.Equal(got.Pairs, want.Pairs) {
		t.Fatalf("%s: pairs differ from Identify (%d vs %d pairs)", what, len(got.Pairs), len(want.Pairs))
	}
	if got.Counts != want.Counts {
		t.Fatalf("%s: counts differ: %v vs %v", what, got.Counts, want.Counts)
	}
	if !slices.Equal(got.CausalEdges, want.CausalEdges) {
		t.Fatalf("%s: causal edges differ (%d vs %d edges)", what, len(got.CausalEdges), len(want.CausalEdges))
	}
	if got.Truncated != want.Truncated {
		t.Fatalf("%s: truncated %d vs %d", what, got.Truncated, want.Truncated)
	}
}

// everyWorkload runs f over every registered workload at 2 and 4
// threads.
func everyWorkload(t *testing.T, f func(t *testing.T, tr *trace.Trace, css []*trace.CritSec)) {
	for _, app := range workload.Names() {
		for _, threads := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/t%d", app, threads), func(t *testing.T) {
				tr, css := recordedCS(t, app, threads, 7)
				f(t, tr, css)
			})
		}
	}
}

// TestShardMergeMatchesIdentify: with a non-binding reversed-replay
// budget, running each lock group through a table-less shard (nil
// table: shard-local memo and budget) and merging in sorted lock order
// must reproduce Identify exactly — the per-lock vs per-trace budget
// difference only matters when the budget binds.
func TestShardMergeMatchesIdentify(t *testing.T) {
	everyWorkload(t, func(t *testing.T, tr *trace.Trace, css []*trace.CritSec) {
		opts := Options{maxReversedReplays: 1 << 30}
		sameClassification(t, "table-less shards", mergeShards(tr, css, opts, nil), Identify(tr, css, opts))
	})
}

// TestIdentifyWithVerdictsMatchesShards: for every workload × threads
// {2,4} × seeds {7,42}, Identify's walk against the trace's verdict
// table classifies pair for pair as the table-backed shards merged in
// sorted lock order, neither replays, and the walk reports the table's
// replays as its own.
func TestIdentifyWithVerdictsMatchesShards(t *testing.T) {
	for _, app := range workload.Names() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				t.Run(fmt.Sprintf("%s/t%d/s%d", app, threads, seed), func(t *testing.T) {
					tr, css := recordedCS(t, app, threads, seed)
					table, _ := BuildVerdictTable(tr, css, Options{})
					shards := mergeShards(tr, css, Options{}, table)
					got := IdentifyWithVerdicts(tr, css, Options{}, table)
					sameClassification(t, "walk against the table", got, shards)
					if shards.ReversedReplays != 0 || got.ReversedReplays != table.Replays {
						t.Fatalf("shards replayed %d, the walk reports %d; want 0 and the table's %d",
							shards.ReversedReplays, got.ReversedReplays, table.Replays)
					}
				})
			}
		}
	}
}

// TestIdentifyDeterministic: two runs over the same trace produce
// identical reports (sorted lock/thread iteration removed the map-order
// dependence that made budget consumption racy).
func TestIdentifyDeterministic(t *testing.T) {
	tr, css := recordedCS(t, "mysql", 2, 3)
	a := Identify(tr, css, Options{})
	b := Identify(tr, css, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Identify is not deterministic across runs")
	}
}

// TestParentBuiltTablesStillHit: verdict tables are cached and shipped
// between nodes keyed by pairKey's bytes, so a table built before the
// key was assembled from interned regions and a merge-collected
// signature must remain a full hit. The fixture holds the tables commit
// 8db1af1 (map-based shadow sets, strconv-rendered regions) built for
// these recordings: shards against them replay nothing and reproduce
// today's Identify, and today's tables are the same bytes.
func TestParentBuiltTablesStillHit(t *testing.T) {
	data, err := os.ReadFile("testdata/verdict_tables_8db1af1.json")
	if err != nil {
		t.Fatal(err)
	}
	var tables map[string]*VerdictTable
	if err := json.Unmarshal(data, &tables); err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("fixture holds no tables")
	}
	for app, old := range tables {
		tr, css := recordedCS(t, app, 4, 7)
		table, want := BuildVerdictTable(tr, css, Options{})
		if !reflect.DeepEqual(table, old) {
			t.Errorf("%s: table differs from the one the parent commit built:\n%v\n%v", app, table.Verdicts, old.Verdicts)
		}
		got := mergeShards(tr, css, Options{}, old)
		if got.ReversedReplays != 0 {
			t.Errorf("%s: %d replays against the parent-built table, want a full hit", app, got.ReversedReplays)
		}
		sameClassification(t, app, got, want)
	}
}

// TestScanAllocsIndependentOfPairs: a table-hit shard pass allocates per
// lock group (its report, its thread offsets and members, the sections,
// runs and causal edges sized from the group, its shapes' hash table and
// list, twice per doubling past 32 shapes, the category table over them
// once, the pair rows once, and three times per distinct code region it
// interns), never per pair.
func TestScanAllocsIndependentOfPairs(t *testing.T) {
	pass := func(scale float64) (allocs float64, groups, pairs int) {
		p := workload.MustGet("fluidanimate").Build(workload.Config{Threads: 4, Scale: scale, Seed: 42})
		tr := sim.Run(p, sim.Config{Seed: 42}).Trace
		css := tr.ExtractCS()
		table, rep := BuildVerdictTable(tr, css, Options{})
		lockGroups := SortedLockGroups(css)
		return testing.AllocsPerRun(5, func() {
			for _, g := range lockGroups {
				if IdentifyShardWithVerdicts(tr, g, Options{}, table).ReversedReplays != 0 {
					t.Fatal("table-hit shard replayed")
				}
			}
		}), len(lockGroups), len(rep.Pairs)
	}
	small, gSmall, pSmall := pass(0.1)
	large, gLarge, pLarge := pass(0.4)
	if pLarge < 3*pSmall {
		t.Fatalf("fixture: %d and %d pairs, want the larger trace to enumerate several times as many", pSmall, pLarge)
	}
	perGroup := func(allocs float64, groups int) float64 { return allocs / float64(groups) }
	t.Logf("%v allocations over %d groups and %d pairs; %v over %d groups and %d pairs",
		small, gSmall, pSmall, large, gLarge, pLarge)
	if a, b := perGroup(small, gSmall), perGroup(large, gLarge); a > 32 || b > 32 || b > a+4 {
		t.Errorf("table-hit shards allocate %.1f times per lock group over %d pairs and %.1f over %d, want O(lock groups)",
			a, pSmall, b, pLarge)
	}
}
