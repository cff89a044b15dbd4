package jobs_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/jobs"
	"perfplay/internal/peerclient"
	"perfplay/internal/pipeline"
)

// These tests drive the Stealer over real HTTP through peerclient, the
// daemon's Peer, against victims that are the daemon's own job node;
// the external test package is what lets them import both without a
// cycle.

type victim = jobs.Node[struct{}, struct{}]

// newVictim returns a node (queue depth 8) holding one stealable job per
// ID, oldest first.
func newVictim(ids ...string) *victim {
	v := jobs.New(jobs.Config[struct{}, struct{}]{Policy: jobs.Policy{QueueDepth: 8, Lease: time.Minute}})
	for _, id := range ids {
		v.Admit(&jobs.Job{ID: id, Spec: clusterapi.Spec{App: "mysql", Threads: 4, Seed: 7}})
	}
	return v
}

func stealable(v *victim) int { return v.Status(nil).Stealable }

// fakeVictim serves the victim half of the steal protocol from a node.
func fakeVictim(t *testing.T, v *victim) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /steal", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(v.Status([]string{"hot-key"}))
	})
	mux.HandleFunc("POST /jobs/claim", func(w http.ResponseWriter, r *http.Request) {
		j, deadline, ok := v.Claim("test-thief")
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		json.NewEncoder(w).Encode(clusterapi.StolenJob{ID: j.ID, Spec: j.Spec, LeaseMS: time.Until(deadline).Milliseconds()})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// noCache is a thief's local cache that holds nothing.
type noCache struct{}

func (noCache) HasResult(string) bool                        { return false }
func (noCache) HasTable(string) bool                         { return false }
func (noCache) HasCached(string) bool                        { return false }
func (noCache) ImportTable(string, *pipeline.WireTable) bool { return false }

type thiefNode = jobs.Node[*pipeline.WireResult, *pipeline.WireTable]

// newThief returns a node over peers that polls every 5ms on now
// (nil = the wall clock).
func newThief(now func() time.Time, peers ...string) *thiefNode {
	return jobs.New(jobs.Config[*pipeline.WireResult, *pipeline.WireTable]{
		Policy: jobs.Policy{StealInterval: 5 * time.Millisecond},
		Peers:  peers,
		Local:  noCache{},
		Now:    now,
	})
}

// run starts st's loop and returns the function that stops it and waits
// for Run to return, after which its counters are final.
func run(st *jobs.Stealer[*pipeline.WireResult, *pipeline.WireTable]) (stop func()) {
	quit, ran := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ran)
		st.Run(quit)
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-ran
	}
}

func TestStealerDrainsDeepestPeer(t *testing.T) {
	shallow, deep := newVictim("s1"), newVictim("d1", "d2", "d3")
	tsShallow, tsDeep := fakeVictim(t, shallow), fakeVictim(t, deep)

	var mu sync.Mutex
	var order []string
	idle := true
	done := make(chan struct{})
	n := newThief(nil, tsShallow.URL, tsDeep.URL)
	st := n.NewStealer("http://self", &peerclient.Client{},
		func() bool {
			mu.Lock()
			defer mu.Unlock()
			return idle
		},
		func(victim string, job clusterapi.StolenJob) error {
			mu.Lock()
			defer mu.Unlock()
			order = append(order, job.ID)
			if len(order) == 4 {
				idle = false
				close(done)
			}
			return nil
		})
	stop := run(st)
	defer stop()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("stealer stalled; stole %v", order)
	}
	stop()
	mu.Lock()
	defer mu.Unlock()
	// The deeper backlog must be hit first; claims take the newest job.
	if order[0] != "d3" {
		t.Fatalf("first steal = %q, want d3 (deepest peer, newest job)", order[0])
	}
	if stealable(shallow) != 0 || stealable(deep) != 0 {
		t.Fatalf("backlogs not drained: shallow=%d deep=%d", stealable(shallow), stealable(deep))
	}
	m := n.Metrics
	if c, e, f := m.StealClaims.Int(), m.StealExecuted.Int(), m.StealFailures.Int(); c != 4 || e != 4 || f != 0 {
		t.Fatalf("claims/executed/failures = %d/%d/%d, want 4/4/0", c, e, f)
	}
	// Gossip observed both peers.
	snap := n.Gossip.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("gossip tracks %d peers, want 2", len(snap))
	}
}

func TestStealerRespectsIdle(t *testing.T) {
	q := newVictim("a")
	ts := fakeVictim(t, q)
	st := newThief(nil, ts.URL).NewStealer("http://self", &peerclient.Client{},
		func() bool { return false },
		func(string, clusterapi.StolenJob) error {
			t.Error("executed a steal while not idle")
			return nil
		})
	stop := run(st)
	time.Sleep(100 * time.Millisecond)
	stop()
	if stealable(q) != 1 {
		t.Fatal("busy node stole anyway")
	}
}

// TestProbe: the probe carries the peer's full status — admission
// headroom and cache hints included — and fails loudly against a dead
// peer.
func TestProbe(t *testing.T) {
	q := newVictim("a")
	ts := fakeVictim(t, q)

	st, err := (&peerclient.Client{}).Probe(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueLen != 1 || st.QueueCap != 8 || st.Stealable != 1 {
		t.Fatalf("probe = %+v", st)
	}
	if !st.HintsKey("hot-key") || st.HintsKey("cold-key") {
		t.Fatalf("cache hints wrong: %v", st.CacheKeys)
	}
	hinted := clusterapi.PeerStatus{CacheKeys: []string{"sha256:abc|in0|t2|rest"}}
	if !hinted.HintsDigest("sha256:abc") || hinted.HintsDigest("sha256:ab") || hinted.HintsDigest("sha256:abd") {
		t.Fatalf("digest hints wrong: %v", hinted.CacheKeys)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	if _, err := (&peerclient.Client{}).Probe(deadURL); err == nil {
		t.Fatal("probe of a dead peer succeeded")
	}
}

// TestBusyNodeStillGossips: a node too busy to steal still probes its
// peers each tick — steal-aware admission reads this view to pick a
// Retry-Peer redirect target, and the view must not go stale exactly
// when the node is overloaded — while never actually claiming work.
func TestBusyNodeStillGossips(t *testing.T) {
	q := newVictim("a")
	ts := fakeVictim(t, q)
	n := newThief(nil, ts.URL)
	st := n.NewStealer("http://self", &peerclient.Client{},
		func() bool { return false },
		func(string, clusterapi.StolenJob) error {
			t.Error("executed a steal while not idle")
			return nil
		})
	defer run(st)()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if pst, ok := n.Gossip.Snapshot()[ts.URL]; ok && pst.Err == "" {
			if pst.QueueLen != 1 || pst.QueueCap != 8 {
				t.Fatalf("gossip entry = %+v", pst)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("busy node never refreshed its gossip")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stealable(q) != 1 {
		t.Fatal("busy node stole the job while gossiping")
	}
}

// TestStealerSurvivesDeadPeer: an unreachable peer is recorded in
// gossip as an error and skipped; live peers still get drained.
func TestStealerSurvivesDeadPeer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	q := newVictim("a")
	ts := fakeVictim(t, q)

	done := make(chan struct{})
	var once sync.Once
	n := newThief(nil, deadURL, ts.URL)
	st := n.NewStealer("http://self", &peerclient.Client{},
		func() bool { return true },
		func(victim string, job clusterapi.StolenJob) error {
			once.Do(func() { close(done) })
			return nil
		})
	defer run(st)()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("live peer never drained past the dead one")
	}
	if n.Gossip.Snapshot()[deadURL].Err == "" {
		t.Fatal("dead peer's probe failure not recorded in gossip")
	}
}

// TestStealerCountsReportFailures: an Execute error (e.g. the victim
// died before the result could be reported) is a counted failure, not a
// wedge — the loop keeps going.
func TestStealerCountsReportFailures(t *testing.T) {
	ts := fakeVictim(t, newVictim("a", "b"))

	drained := make(chan struct{})
	var calls int
	var mu sync.Mutex
	n := newThief(nil, ts.URL)
	st := n.NewStealer("http://self", &peerclient.Client{},
		func() bool { return true },
		func(victim string, job clusterapi.StolenJob) error {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls == 2 {
				close(drained)
			}
			return &json.SyntaxError{} // any error: "victim unreachable"
		})
	stop := run(st)
	defer stop()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("stealer wedged after a failed report")
	}
	stop()
	if f, e := n.Metrics.StealFailures.Int(), n.Metrics.StealExecuted.Int(); f != 2 || e != 2 {
		t.Fatalf("executed/failures = %d/%d, want 2 executed / 2 failures", e, f)
	}
}

// TestStealerStampsGossipWithOwnClock: the full probe path — the wire
// status carries the victim's own Seen stamp, and the gossip entry
// carries the thief node's clock instead.
func TestStealerStampsGossipWithOwnClock(t *testing.T) {
	q := newVictim("a")
	ts := fakeVictim(t, q)

	stamp := time.Unix(1_700_000_000, 0)
	// The wire status carries the victim's wall clock...
	wire, err := (&peerclient.Client{}).Probe(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Seen.IsZero() || wire.Seen.Equal(stamp) {
		t.Fatalf("wire Seen = %v, want the victim's own stamp", wire.Seen)
	}

	// ...but gossip records the observer's.
	n := newThief(func() time.Time { return stamp }, ts.URL)
	st := n.NewStealer("http://self", &peerclient.Client{},
		func() bool { return false }, // gossip-only ticks
		func(string, clusterapi.StolenJob) error { return nil })
	defer run(st)()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if pst, ok := n.Gossip.Snapshot()[ts.URL]; ok && pst.Err == "" {
			if !pst.Seen.Equal(stamp) {
				t.Fatalf("gossip Seen = %v, want the node clock's %v", pst.Seen, stamp)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gossip never recorded the probe")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
