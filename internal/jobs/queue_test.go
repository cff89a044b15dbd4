package jobs

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/journal"
)

// These tests hold the node's queue and lease behaviour: FIFO pops from
// the front, claims from the back, leases that settle once or lapse
// back to the front, and shutdown.

// local is the spec of an uploaded-trace job: not stealable.
var local = clusterapi.Spec{}

// popIDs pops the whole queue, oldest first.
func popIDs(n *Node[string, string]) []string {
	var ids []string
	for j, ok := n.TryPop(); ok; j, ok = n.TryPop() {
		ids = append(ids, j.ID)
	}
	return ids
}

// Admission stops at QueueDepth, and Pop takes the oldest job.
func TestQueueFIFOAndBound(t *testing.T) {
	h := newHarness(Config[string, string]{Policy: Policy{QueueDepth: 2}})
	a, b := h.admit(t), h.admit(t)
	if h.n.Admit(&Job{Spec: clusterapi.Spec{App: "x"}}) {
		t.Fatal("admit beyond QueueDepth accepted")
	}
	if n := h.n.QueueLen(); n != 2 {
		t.Fatalf("queue len = %d, want 2", n)
	}
	if j, ok := h.n.Pop(); !ok || j.ID != a {
		t.Fatalf("Pop = %v, want the oldest job %s", j, a)
	}
	if j, ok := h.n.Pop(); !ok || j.ID != b {
		t.Fatalf("Pop = %v, want %s", j, b)
	}
}

// TryPop takes the oldest job like Pop, and reports an empty queue
// without waiting.
func TestQueueTryPop(t *testing.T) {
	h := newHarness(Config[string, string]{})
	if _, ok := h.n.TryPop(); ok {
		t.Fatal("TryPop on an empty queue reported a job")
	}
	a, _ := h.admit(t), h.admit(t)
	if j, ok := h.n.TryPop(); !ok || j.ID != a {
		t.Fatalf("TryPop = %v, want the oldest job %s", j, a)
	}
	if n := h.n.QueueLen(); n != 1 {
		t.Fatalf("queue len = %d after TryPop, want 1", n)
	}
}

// A thief claims the newest stealable job; a newer upload job stays for
// the local workers.
func TestClaimTakesNewestStealable(t *testing.T) {
	h := newHarness(Config[string, string]{})
	old, newer, upload := h.admit(t), h.admit(t), h.admitSpec(t, local)

	j, deadline, ok := h.n.Claim("http://thief")
	if !ok || j.ID != newer {
		t.Fatalf("claim = %v, want the newest stealable job %s", j.ID, newer)
	}
	if want := h.clk.Now().Add(time.Minute); !deadline.Equal(want) {
		t.Fatalf("lease deadline = %v, want now+Lease = %v", deadline, want)
	}
	if thief, ok := h.n.Claimant(newer); !ok || thief != "http://thief" {
		t.Fatalf("claimant = %q, %t", thief, ok)
	}
	if _, ok := h.n.Claimant(old); ok {
		t.Fatal("a queued job reports a claimant")
	}
	if st := h.n.Status(nil); st.QueueLen != 2 || st.Stealable != 1 || h.n.ClaimedCount() != 1 {
		t.Fatalf("len=%d stealable=%d claimed=%d", st.QueueLen, st.Stealable, h.n.ClaimedCount())
	}

	// The other stealable job goes next; then nothing is left, though the
	// upload job still waits for a local worker.
	if j, _, ok := h.n.Claim("t2"); !ok || j.ID != old {
		t.Fatalf("second claim = %v, want %s", j.ID, old)
	}
	if _, _, ok := h.n.Claim("t3"); ok {
		t.Fatal("claimed an unstealable job")
	}
	if got := popIDs(h.n); !slices.Equal(got, []string{upload}) {
		t.Fatalf("queue = %v, want only the upload job", got)
	}
}

// A lease settles once: a second report, and a report for a job never
// claimed, answer ErrLeaseExpired.
func TestSettleOnce(t *testing.T) {
	h := newHarness(Config[string, string]{})
	id := h.admit(t)
	h.n.Claim("thief")
	if j, err := h.n.Settle(id, "thief", core.Rendered{}, ""); err != nil || j.Status != Done {
		t.Fatalf("settle = %+v, %v", j, err)
	}
	if _, err := h.n.Settle(id, "thief", core.Rendered{}, ""); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("double settle: err = %v, want ErrLeaseExpired", err)
	}
	if _, err := h.n.Settle("never-claimed", "thief", core.Rendered{}, ""); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("settle of an unclaimed job: err = %v, want ErrLeaseExpired", err)
	}
	if h.n.ClaimedCount() != 0 {
		t.Fatal("a settled lease is still outstanding")
	}
}

// A thief's failure report is journaled failed, not settled.
func TestFailedSettleJournaledFailed(t *testing.T) {
	h := newHarness(Config[string, string]{})
	id := h.admit(t)
	h.n.Claim("thief")
	j, err := h.n.Settle(id, "thief", core.Rendered{}, "boom")
	if err != nil || j.Status != Failed || j.Error != "boom" {
		t.Fatalf("settle = %+v, %v; want failed with boom", j, err)
	}
	h.finishedAs(t, id, journal.OpAdmitted, journal.OpFailed)
}

// A lapsed lease comes back at the front of the queue, ahead of jobs
// that have not waited yet, and before that the lease is held.
func TestExpiredLeaseRequeuesAtFront(t *testing.T) {
	h := newHarness(Config[string, string]{})
	waiting, stolen := h.admit(t), h.admit(t)
	if j, _, ok := h.n.Claim("thief"); !ok || j.ID != stolen {
		t.Fatal("claim failed")
	}
	if n := h.n.Reap(); n != 0 {
		t.Fatalf("reaped %d leases before they lapsed", n)
	}
	h.clk.advance(2 * time.Minute)
	if n := h.n.Reap(); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if got := popIDs(h.n); !slices.Equal(got, []string{stolen, waiting}) {
		t.Fatalf("queue after reap = %v, want the requeued %s first", got, stolen)
	}
}

// Leases that lapse in one sweep requeue oldest deadline first, so the
// longest-abandoned job re-runs soonest; equal deadlines (one coarse
// clock reading) break on job ID, never on map order.
func TestReapOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		tick time.Duration // clock advance between claims
		want []string      // requeued order
	}{
		// Claims take the newest first: job-3, job-2, job-1.
		{"oldest deadline first", time.Second, []string{"job-3", "job-2", "job-1"}},
		{"ties by job ID", 0, []string{"job-1", "job-2", "job-3"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(Config[string, string]{})
			for range 3 {
				h.admit(t)
			}
			for range 3 {
				if _, _, ok := h.n.Claim("thief"); !ok {
					t.Fatal("claim failed")
				}
				h.clk.advance(tc.tick)
			}
			h.clk.advance(2 * time.Minute)
			if n := h.n.Reap(); n != 3 {
				t.Fatalf("reaped %d, want 3", n)
			}
			if got := popIDs(h.n); !slices.Equal(got, tc.want) {
				t.Fatalf("requeue order %v, want %v", got, tc.want)
			}
		})
	}
}

// A full queue still takes back its own lapsed leases: refusing them
// would turn a thief's crash into job loss.
func TestReapPastQueueDepth(t *testing.T) {
	h := newHarness(Config[string, string]{Policy: Policy{QueueDepth: 1}})
	h.admit(t)
	h.n.Claim("thief")
	h.admit(t) // fills the queue again
	h.clk.advance(2 * time.Minute)
	if n := h.n.Reap(); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if n := h.n.QueueLen(); n != 2 {
		t.Fatalf("queue len = %d, want 2 (requeue passes QueueDepth)", n)
	}
}

// The log holds each job's admission and its one terminal record, in
// the order the node made them; a refused admit, a claim, a requeue and
// an eviction log nothing, and a lease abandoned at shutdown is failed.
func TestTransitionLog(t *testing.T) {
	h := newHarness(Config[string, string]{Policy: Policy{QueueDepth: 2, MaxJobs: 1}})
	a, b := h.admit(t), h.admit(t)
	h.n.Admit(&Job{ID: "refused", Spec: clusterapi.Spec{App: "x"}})
	h.n.Claim("thief") // takes b
	h.n.Settle(b, "thief", core.Rendered{}, "")
	h.n.Claim("thief2") // takes a
	h.clk.advance(2 * time.Minute)
	h.n.Reap() // a back at the front
	c := h.admit(t)
	h.n.Claim("thief3") // takes c
	h.n.Close()
	h.clk.advance(2 * time.Minute)
	h.n.Reap() // c abandoned; b evicted past MaxJobs

	want := []string{
		"admitted " + a,
		"admitted " + b,
		"settled " + b,
		"admitted " + c,
		"failed " + c,
	}
	if got := h.log.all(); !slices.Equal(got, want) {
		t.Fatalf("transitions:\n got %v\nwant %v", got, want)
	}
}

// Pop waits for an admit; Close wakes a waiting Pop with false and
// stops admits and claims.
func TestPopBlocksUntilAdmitOrClose(t *testing.T) {
	h := newHarness(Config[string, string]{})
	got := make(chan *Job, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		j, ok := h.n.Pop()
		if !ok {
			t.Error("pop returned !ok with a job pending")
		}
		got <- j
	}()
	time.Sleep(10 * time.Millisecond) // let the popper block
	id := h.admit(t)
	select {
	case j := <-got:
		if j.ID != id {
			t.Fatalf("pop = %s, want %s", j.ID, id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop never woke")
	}
	wg.Wait()

	done := make(chan bool, 1)
	go func() {
		_, ok := h.n.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	h.n.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("pop returned ok after close on an empty queue")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close never woke the popper")
	}
	if h.n.Admit(&Job{Spec: clusterapi.Spec{App: "x"}}) {
		t.Fatal("admit after close accepted")
	}
	if _, _, ok := h.n.Claim("t"); ok {
		t.Fatal("claim after close succeeded")
	}
}

// Jobs queued before Close still pop.
func TestQueueDrainsAfterClose(t *testing.T) {
	h := newHarness(Config[string, string]{})
	id := h.admit(t)
	h.n.Close()
	if j, ok := h.n.Pop(); !ok || j.ID != id {
		t.Fatalf("pop after close = %v, %t", j, ok)
	}
	if _, ok := h.n.Pop(); ok {
		t.Fatal("pop on a closed, empty queue returned ok")
	}
}

// Status advertises the stealable digests newest first (claim order),
// skipping digestless and unstealable jobs, at most HintKeys of them.
func TestStatusAdvertisesStealableDigests(t *testing.T) {
	for _, tc := range []struct {
		hintKeys int
		want     []string
	}{
		{0, []string{"sha256:bb", "sha256:aa"}},
		{1, []string{"sha256:bb"}},
	} {
		h := newHarness(Config[string, string]{Policy: Policy{HintKeys: tc.hintKeys}})
		h.admitSpec(t, clusterapi.Spec{TraceDigest: "sha256:aa"})
		h.admitSpec(t, clusterapi.Spec{App: "x"}) // stealable, no digest
		h.admitSpec(t, clusterapi.Spec{TraceDigest: "sha256:bb"})
		h.admitSpec(t, local)
		st := h.n.Status(nil)
		if st.QueueLen != 4 || st.QueueCap != 8 || st.Stealable != 3 || !slices.Equal(st.StealableDigests, tc.want) {
			t.Fatalf("HintKeys %d: status = %+v, want 4 queued of 8, 3 stealable, digests %v", tc.hintKeys, st, tc.want)
		}
	}
}

// Recovery queues every restored job at the back in admit order, past
// QueueDepth, as a requeued lease would be: none is lost.
func TestRecoverPastQueueDepth(t *testing.T) {
	h := newHarness(Config[string, string]{Policy: Policy{QueueDepth: 2}})
	var live []*Job
	for _, id := range []string{"job-1", "job-2", "job-3", "job-4", "job-5"} {
		j := &Job{ID: id, Spec: clusterapi.Spec{App: "x"}}
		h.n.Restore(j)
		live = append(live, j)
	}
	if lost := h.n.Recover(live); len(lost) != 0 {
		t.Fatalf("lost = %v, want none", lost)
	}
	for _, j := range live {
		if got := h.log.ops(j.ID); !slices.Equal(got, []string{journal.OpAdmitted}) {
			t.Fatalf("journal for %s = %v, want admitted again", j.ID, got)
		}
	}
	if got := popIDs(h.n); !slices.Equal(got, []string{"job-1", "job-2", "job-3", "job-4", "job-5"}) {
		t.Fatalf("queue = %v, want every job in admit order, past QueueDepth", got)
	}
	if h.admit(t) != "job-6" {
		t.Fatal("the ID sequence did not move past the restored jobs")
	}
}

// Jobs that recover into a closed node are failed and handed back as
// lost, so the caller knows exactly which were dropped; none enters the
// queue a closed node no longer drains.
func TestRecoverIntoClosedQueue(t *testing.T) {
	h := newHarness(Config[string, string]{})
	var live []*Job
	for _, id := range []string{"job-1", "job-2"} {
		j := &Job{ID: id, Spec: clusterapi.Spec{App: "x"}}
		h.n.Restore(j)
		live = append(live, j)
	}
	h.n.Close()
	lost := h.n.Recover(live)
	if len(lost) != 2 || lost[0].ID != "job-1" || lost[1].ID != "job-2" {
		t.Fatalf("lost = %v, want job-1 and job-2", lost)
	}
	for _, j := range live {
		if st := h.status(j.ID); st.Status != Failed || !strings.Contains(st.Error, "queue closed during recovery") {
			t.Fatalf("job = %+v, want failed: queue closed during recovery", st)
		}
		h.finishedAs(t, j.ID, journal.OpFailed)
	}
	if n := h.n.QueueLen(); n != 0 {
		t.Fatalf("queue len = %d: lost jobs entered the closed node", n)
	}
	if _, ok := h.n.Pop(); ok {
		t.Fatal("a worker popped from the closed node after recovery")
	}
}
