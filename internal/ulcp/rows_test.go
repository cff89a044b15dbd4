package ulcp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/simtest"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// pinnedReport is one report as testdata/pairs_6e98ba1.json holds it:
// the sha256 of its pair rows and of its causal edges, each field a
// little-endian uint32 in report order, beside its counts.
type pinnedReport struct {
	Pairs           int                `json:"pairs"`
	RowsSHA256      string             `json:"rows_sha256"`
	Counts          [NumCategories]int `json:"counts"`
	CausalEdges     int                `json:"causal_edges"`
	EdgesSHA256     string             `json:"causal_edges_sha256"`
	ReversedReplays int                `json:"reversed_replays"`
}

func pin(rep *Report) pinnedReport {
	rows, edges := sha256.New(), sha256.New()
	var b [12]byte
	for _, p := range rep.Pairs {
		binary.LittleEndian.PutUint32(b[0:], uint32(p.C1))
		binary.LittleEndian.PutUint32(b[4:], uint32(p.C2))
		binary.LittleEndian.PutUint32(b[8:], uint32(p.Cat))
		rows.Write(b[:])
	}
	for _, e := range rep.CausalEdges {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.From))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.To))
		edges.Write(b[:8])
	}
	return pinnedReport{
		Pairs: len(rep.Pairs), RowsSHA256: hex.EncodeToString(rows.Sum(nil)),
		Counts: rep.Counts, CausalEdges: len(rep.CausalEdges), EdgesSHA256: hex.EncodeToString(edges.Sum(nil)),
		ReversedReplays: rep.ReversedReplays,
	}
}

// TestPairsKeepTheirRows holds identification to the rows commit 6e98ba1
// produced, when a pair still held two *trace.CritSec: every workload at
// threads {2,4} and seeds {7,42}, scale 0.1, by the build pass (the
// pipeline's fresh-table path) and by table-hit shards merged in lock
// order (its cached-table path, which adds the table's replays).
func TestPairsKeepTheirRows(t *testing.T) {
	data, err := os.ReadFile("testdata/pairs_6e98ba1.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]pinnedReport
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				key := fmt.Sprintf("%s/t%d/s%d", app, threads, seed)
				w, ok := want[key]
				if !ok {
					t.Fatalf("%s: not in the fixture", key)
				}
				seen++
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.1, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				css := tr.ExtractCS()
				table, built := BuildVerdictTable(tr, css, Options{})
				if got := pin(built); got != w {
					t.Errorf("%s: build pass %+v, parent %+v", key, got, w)
				}
				merged := mergeShards(tr, css, Options{}, table)
				merged.ReversedReplays += table.Replays
				if got := pin(merged); got != w {
					t.Errorf("%s: table-hit shards %+v, parent %+v", key, got, w)
				}
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("checked %d reports, the fixture holds %d", seen, len(want))
	}
}

// TestIdentifyBytesPerPair pins what one identification pass allocates
// per classified pair on the pair-heavy mysql workload at two scales: a
// pair is one 12-byte row, written once at the end, plus its share of
// the scan's run and causal edge, flat in the trace size (with a
// category byte per pair besides, 21.3 and 19.6 B/pair here; 16-byte
// rows held in chunks and copied once, 38–43; two *trace.CritSec per
// pair in an append-grown array, 116 and 124).
func TestIdentifyBytesPerPair(t *testing.T) {
	const runs = 3
	for _, scale := range []float64{0.25, 0.5} {
		p := workload.MustGet("mysql").Build(workload.Config{Threads: 4, Scale: scale, Seed: 42})
		tr := sim.Run(p, sim.Config{Seed: 42}).Trace
		css := tr.ExtractCS()
		_, rep := BuildVerdictTable(tr, css, Options{})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			BuildVerdictTable(tr, css, Options{})
		}
		runtime.ReadMemStats(&m1)
		perPair := float64(m1.TotalAlloc-m0.TotalAlloc) / runs / float64(len(rep.Pairs))
		t.Logf("scale %v: %d pairs, %.1f B/pair", scale, len(rep.Pairs), perPair)
		if perPair > 28 {
			t.Errorf("scale %v: %.1f B/pair over %d pairs, want <= 28", scale, perPair, len(rep.Pairs))
		}
	}
}

// FuzzIdentify holds identification's two paths and its rows together
// over generated programs: any seed, two to eight threads, one to three
// locks, one to twelve critical sections per thread, any program
// feature, and scan caps and replay budgets that bind. The fresh-table
// report equals the table-hit shards merged and pairsRef's rows, row for
// row; every row names two critical sections of one lock on two threads,
// the first before the second in the lock's order; and Counts tallies
// the rows.
func FuzzIdentify(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(2), uint8(1), uint8(11), uint8(15), uint8(0), uint8(0))
	f.Add(int64(42), uint8(1), uint8(2), uint8(9), uint8(3), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, threads, locks, iters, features, scan, budget uint8) {
		rec := simtest.RandomProgram(seed, 2+int(threads%7), 1+int(locks%3), 1+int(iters%12), simtest.Feature(features&15))
		tr := rec.Trace
		css := tr.ExtractCS()
		opts := Options{maxScanPerThread: int(scan % 4), maxReversedReplays: int(budget % 4)}
		table, built := BuildVerdictTable(tr, css, opts)
		merged := mergeShards(tr, css, opts, table)
		if merged.ReversedReplays != 0 {
			t.Fatalf("table-hit shards replayed %d times", merged.ReversedReplays)
		}
		sameClassification(t, "table-hit shards", merged, built)
		sameClassification(t, "pairsRef", built, pairsRef(t, tr, css, opts, table))
		requireRowsWellFormed(t, built, css)
	})
}

// requireRowsWellFormed fails unless every row of rep names two entries
// of css under one lock, on two threads, in the lock's acquisition order,
// and rep.Counts is the rows' tally.
func requireRowsWellFormed(t *testing.T, rep *Report, css []*trace.CritSec) {
	t.Helper()
	var counts [NumCategories]int
	for i, p := range rep.Pairs {
		if p.C1 < 0 || int(p.C1) >= len(css) || p.C2 < 0 || int(p.C2) >= len(css) {
			t.Fatalf("row %d %+v: an ID outside the %d critical sections", i, p, len(css))
		}
		c1, c2 := css[p.C1], css[p.C2]
		if c1.Lock != c2.Lock || c1.Thread == c2.Thread || c1.SeqInLock >= c2.SeqInLock {
			t.Fatalf("row %d %+v: sections on locks %d/%d, threads %d/%d, lock order %d/%d",
				i, p, c1.Lock, c2.Lock, c1.Thread, c2.Thread, c1.SeqInLock, c2.SeqInLock)
		}
		if p.Cat >= NumCategories {
			t.Fatalf("row %d %+v: no such category", i, p)
		}
		counts[p.Cat]++
	}
	if counts != rep.Counts {
		t.Fatalf("rows tally %v, Counts %v", counts, rep.Counts)
	}
}
