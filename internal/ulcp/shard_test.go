package ulcp

import (
	"fmt"
	"reflect"
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
// pairs in the same order, same counts and causal edges.
func sameClassification(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatalf("%s: pairs differ from Identify (%d vs %d pairs)", what, len(got.Pairs), len(want.Pairs))
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Fatalf("%s: counts differ: %v vs %v", what, got.Counts, want.Counts)
	}
	if !reflect.DeepEqual(got.CausalEdges, want.CausalEdges) {
		t.Fatalf("%s: causal edges differ", what)
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
		opts := Options{MaxReversedReplays: 1 << 30}
		sameClassification(t, "table-less shards", mergeShards(tr, css, opts, nil), Identify(tr, css, opts))
	})
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
