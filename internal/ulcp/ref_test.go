package ulcp

import (
	"cmp"
	"maps"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// pairsRef is the oracle for the identifier's pair storage: RULE 1's
// rows enumerated one at a time and appended to the report as they come.
// The locks go in ascending order, each lock's sections in acquisition
// order (SeqInLock), and for each section every peer thread in ascending
// order, walking that thread's sections after it in the lock's order.
// Each pair is Algorithm 1 over the two sections' own events
// (classifyRef); a conflicting pair takes its class's verdict from table
// under regionPairKey's bytes, and table must hold it. A scan stops at
// its first true contention, which is a causal edge, or at opts' scan
// cap, which counts as truncated. It shares neither the identifier's
// walk nor its storage.
func pairsRef(t *testing.T, tr *trace.Trace, css []*trace.CritSec, opts Options, table *VerdictTable) *Report {
	t.Helper()
	opts = opts.withDefaults()
	sets := allSetsOf(tr, css)
	byLock := make(map[trace.LockID][]*trace.CritSec)
	for _, cs := range css {
		byLock[cs.Lock] = append(byLock[cs.Lock], cs)
	}
	rep := &Report{}
	for _, l := range slices.Sorted(maps.Keys(byLock)) {
		group := slices.SortedFunc(slices.Values(byLock[l]), func(a, b *trace.CritSec) int {
			return cmp.Compare(a.SeqInLock, b.SeqInLock)
		})
		var byThread [][]*trace.CritSec
		for _, cs := range group {
			for int(cs.Thread) >= len(byThread) {
				byThread = append(byThread, nil)
			}
			byThread[cs.Thread] = append(byThread[cs.Thread], cs)
		}
		for _, c1 := range group {
			for peer, own := range byThread {
				if peer == int(c1.Thread) {
					continue
				}
				after := own[sort.Search(len(own), func(i int) bool { return own[i].SeqInLock > c1.SeqInLock }):]
				for n, c2 := range after {
					if n == opts.maxScanPerThread {
						rep.Truncated++
						break
					}
					s1, s2 := sets[c1.ID], sets[c2.ID]
					cat := classifyRef(s1, s2)
					if cat == TLCP {
						key := regionPairKey(c1, c2, s1, s2)
						benign, ok := table.Verdicts[key]
						if !ok {
							t.Fatalf("pairsRef: cs%d/cs%d: class %q is not in the table", c1.ID, c2.ID, key)
						}
						if benign {
							cat = Benign
						}
					}
					rep.Pairs = append(rep.Pairs, Pair{C1: int32(c1.ID), C2: int32(c2.ID), Cat: cat})
					rep.Counts[cat]++
					if cat == TLCP {
						rep.CausalEdges = append(rep.CausalEdges, Edge{From: int32(c1.ID), To: int32(c2.ID)})
						break
					}
				}
			}
		}
	}
	return rep
}

// TestThreadAxisPairs pins identification above four threads, where no
// other check runs: mysql, openldap and dedup at 32 threads (×0.05, seed
// 42). The build pass, the table-hit shards merged in lock order, the
// table-hit walk and pairsRef agree row for row, and the two table-hit
// paths report the table's replays. The build pass's bytes per pair are
// logged.
func TestThreadAxisPairs(t *testing.T) {
	for _, app := range []string{"mysql", "openldap", "dedup"} {
		t.Run(app, func(t *testing.T) {
			start := time.Now()
			p := workload.MustGet(app).Build(workload.Config{Threads: 32, Scale: 0.05, Seed: 42})
			tr := sim.Run(p, sim.Config{Seed: 42}).Trace
			css := tr.ExtractCS()

			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			table, built := BuildVerdictTable(tr, css, Options{})
			runtime.ReadMemStats(&m1)
			if len(built.Pairs) == 0 {
				t.Fatal("fixture: no pairs")
			}

			merged := mergeShards(tr, css, Options{}, table)
			if merged.ReversedReplays != 0 {
				t.Fatalf("table-hit shards replayed %d times", merged.ReversedReplays)
			}
			sameClassification(t, "table-hit shards", merged, built)
			walk := IdentifyWithVerdicts(tr, css, Options{}, table)
			sameClassification(t, "table-hit walk", walk, built)
			if walk.ReversedReplays != built.ReversedReplays {
				t.Fatalf("table-hit walk reports %d replays, the build %d", walk.ReversedReplays, built.ReversedReplays)
			}
			sameClassification(t, "pairsRef", built, pairsRef(t, tr, css, Options{}, table))
			t.Logf("%d events, %d critical sections, %d pairs, %d edges; build pass %.1f B/pair; %v",
				len(tr.Events), len(css), len(built.Pairs), len(built.CausalEdges),
				float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(built.Pairs)), time.Since(start).Round(time.Millisecond))
		})
	}
}
