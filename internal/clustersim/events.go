package clustersim

import "container/heap"

// Event kinds, in same-timestamp execution order. When several events
// share a millisecond the order below resolves them: arrivals land
// before stolen work starts, job completions free workers before the
// reaper looks for expired leases, and steal ticks observe the queue
// after all of that settled. Any fixed order would be deterministic;
// this one is also the least surprising — it matches the order a real
// node would tend to observe the same happenings.
const (
	kindArrival = iota
	kindStolenStart
	kindJobDone
	kindReaper
	kindStealTick
	kindSample
	kindCrash
)

// event is one scheduled simulator action. seq breaks (at, kind) ties
// in scheduling order, which closes the last determinism gap: two
// job completions on the same millisecond run in the order they were
// scheduled, never in heap-internal order.
type event struct {
	at   int64 // simulated milliseconds since the epoch
	kind int
	seq  int64
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].kind != h[j].kind {
		return h[i].kind < h[j].kind
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// schedule queues fn to run at simulated time at (clamped to now — the
// past is immutable).
func (c *Cluster) schedule(at int64, kind int, fn func()) {
	if at < c.now {
		at = c.now
	}
	c.seq++
	heap.Push(&c.events, &event{at: at, kind: kind, seq: c.seq, fn: fn})
}
