package clustersim

// chunkLedger models how a node's worker pool drains one job: a
// frontier over the job's cost-weighted groups from which each free
// worker pulls the next contiguous chunk until nothing is left.
//
// Chunks follow guided self-scheduling: each pull takes roughly
// remaining/(chunkFactor·workers) of the outstanding cost, so early
// chunks are large and late chunks are small (the tail balances to
// within one small chunk of perfectly even).
type chunkLedger struct {
	costs     []int64
	next      int   // first unclaimed group index
	remaining int64 // summed cost of costs[next:]
	divisor   int64 // chunkFactor · workers, the quantum denominator
}

// chunkFactor is how many chunks per worker a perfectly uniform drain
// produces. Fixed: sweeping it showed it second-order next to the steal
// cadence (docs/POLICIES.md).
const chunkFactor = 3

// newChunkLedger builds a ledger over per-group costs; workers is the
// node's pool width (Config.validate guarantees it is at least 1).
func newChunkLedger(costs []int64, workers int) *chunkLedger {
	var total int64
	for _, c := range costs {
		total += c
	}
	return &chunkLedger{costs: costs, remaining: total, divisor: chunkFactor * int64(workers)}
}

// nextChunk claims the next chunk [start, end) of the frontier.
// ok=false means the ledger is drained. Every returned chunk is
// non-empty and contiguous with its predecessor; the union over all
// calls is exactly [0, len(costs)).
func (l *chunkLedger) nextChunk() (start, end int, ok bool) {
	if l.next >= len(l.costs) {
		return 0, 0, false
	}
	target := l.remaining / l.divisor
	var acc int64
	start, end = l.next, l.next
	// Always take at least one group; stop once the chunk would
	// meaningfully overshoot the quantum (the half-cost slack keeps a
	// single hot group from dragging its neighbors into its chunk).
	for end < len(l.costs) && (acc == 0 || acc+l.costs[end]/2 <= target) {
		acc += l.costs[end]
		end++
	}
	l.next = end
	l.remaining -= acc
	return start, end, true
}

// unclaimed counts groups not yet pulled.
func (l *chunkLedger) unclaimed() int { return len(l.costs) - l.next }
