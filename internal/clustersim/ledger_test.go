package clustersim

import "testing"

// squareCosts mirrors how a job's group costs skew: quadratic in group
// size, plus one so even an empty group costs a pull.
func squareCosts(sizes ...int) []int64 {
	costs := make([]int64, len(sizes))
	for i, n := range sizes {
		costs[i] = int64(n)*int64(n) + 1
	}
	return costs
}

// TestLedgerCoversExactlyOnce: for a spread of cost shapes and worker
// counts, draining the ledger yields contiguous, non-empty,
// non-overlapping chunks whose union is exactly [0, n).
func TestLedgerCoversExactlyOnce(t *testing.T) {
	cases := []struct {
		name    string
		costs   []int64
		workers int
	}{
		{"empty", squareCosts(), 3},
		{"single", squareCosts(5), 3},
		{"uniform", squareCosts(1, 1, 1, 1), 2},
		{"hot-head", squareCosts(100, 1, 1, 1, 1, 1), 3},
		{"hot-tail", squareCosts(1, 1, 1, 1, 1, 100), 3},
		{"ramp", squareCosts(2, 3, 4, 5, 6, 7, 8), 4},
		{"one-worker", squareCosts(3, 3, 3, 3), 1},
		{"fine-grain", squareCosts(4, 4, 4, 4, 4, 4, 4, 4), 2},
		{"wide", squareCosts(1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2), 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newChunkLedger(tc.costs, tc.workers)
			next := 0
			for {
				start, end, ok := l.nextChunk()
				if !ok {
					break
				}
				if end <= start {
					t.Fatalf("empty chunk [%d,%d)", start, end)
				}
				if start != next {
					t.Fatalf("chunk [%d,%d) not contiguous with frontier %d", start, end, next)
				}
				next = end
			}
			if next != len(tc.costs) {
				t.Fatalf("ledger drained %d of %d groups", next, len(tc.costs))
			}
			if l.unclaimed() != 0 {
				t.Fatalf("unclaimed() = %d after drain", l.unclaimed())
			}
			// A drained ledger stays drained.
			if _, _, ok := l.nextChunk(); ok {
				t.Fatal("nextChunk() produced a chunk after the drain")
			}
		})
	}
}

// TestLedgerIsolatesHotGroups: the dominant group must not drag its
// neighbors into one giant chunk — that would serialize the drain
// behind whichever worker pulled it.
func TestLedgerIsolatesHotGroups(t *testing.T) {
	l := newChunkLedger(squareCosts(100, 1, 1, 1, 1, 1), 3)
	start, end, ok := l.nextChunk()
	if !ok || end-start != 1 {
		t.Fatalf("hot-group chunk = [%d,%d), want it isolated to one group", start, end)
	}
}
