package scheduler

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
)

// fakeTransport scripts per-peer behavior for the steal protocol with
// no HTTP anywhere — the error-path coverage httptest fixtures make
// awkward: timeouts, garbage statuses, peers vanishing between probe
// and claim.
type fakeTransport struct {
	status map[string]PeerStatus // probe responses
	errs   map[string]error      // probe failures
	claims map[string][]StolenJob
	// claimErr fails Claim for a peer even when its probe succeeded —
	// the peer vanished (or started refusing) mid-claim.
	claimErr map[string]error
	settleErr
	probed  []string
	claimed []string
}

type settleErr struct {
	err     error
	settled []string
}

func (f *fakeTransport) Probe(peer string) (PeerStatus, error) {
	f.probed = append(f.probed, peer)
	if err := f.errs[peer]; err != nil {
		return PeerStatus{}, err
	}
	return f.status[peer], nil
}

func (f *fakeTransport) Claim(peer, thief string) (StolenJob, bool, error) {
	f.claimed = append(f.claimed, peer)
	if err := f.claimErr[peer]; err != nil {
		return StolenJob{}, false, err
	}
	q := f.claims[peer]
	if len(q) == 0 {
		return StolenJob{}, false, nil
	}
	j := q[0]
	f.claims[peer] = q[1:]
	return j, true, nil
}

func (f *fakeTransport) Settle(victim, jobID string, res clusterapi.StealResult) error {
	f.settled = append(f.settled, victim+"/"+jobID)
	return f.err
}

func stealerOver(t *testing.T, tr Transport, peers ...string) (*Stealer, *[]StolenJob) {
	t.Helper()
	var got []StolenJob
	idle := true
	s := &Stealer{
		Self:      "http://thief:1",
		Peers:     peers,
		Transport: tr,
		Gossip:    NewGossip(),
		Idle:      func() bool { return idle },
		Execute: func(victim string, j StolenJob) error {
			got = append(got, j)
			idle = false // one steal fills the fake node
			return nil
		},
	}
	return s, &got
}

// TestStealerSkipsTimedOutPeer: a probe timeout on one peer must not
// stop the round — the healthy peer is still probed, recorded, and
// stolen from, and the failure lands in gossip as an Err entry.
func TestStealerSkipsTimedOutPeer(t *testing.T) {
	tr := &fakeTransport{
		errs:   map[string]error{"http://dead:1": errors.New("probe http://dead:1: context deadline exceeded")},
		status: map[string]PeerStatus{"http://live:1": {QueueLen: 3, Stealable: 3}},
		claims: map[string][]StolenJob{"http://live:1": {{ID: "job-1", Spec: Spec{App: "x"}}}},
	}
	s, got := stealerOver(t, tr, "http://dead:1", "http://live:1")
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-1" {
		t.Fatalf("stole %v, want job-1 from the live peer", *got)
	}
	view := s.Gossip.Snapshot()
	if view["http://dead:1"].Err == "" {
		t.Fatalf("timed-out peer not flagged in gossip: %+v", view["http://dead:1"])
	}
	if view["http://live:1"].Err != "" || view["http://live:1"].QueueLen != 3 {
		t.Fatalf("live peer misrecorded: %+v", view["http://live:1"])
	}
}

// TestStealerSurvivesMalformedStatus: a peer whose probe decodes to
// garbage (the transport surfaces it as an error) is treated exactly
// like a dead one — skipped, flagged, round continues.
func TestStealerSurvivesMalformedStatus(t *testing.T) {
	tr := &fakeTransport{
		errs: map[string]error{
			"http://garbled:1": fmt.Errorf("probe http://garbled:1: invalid character '<' looking for beginning of value"),
		},
		status: map[string]PeerStatus{"http://ok:1": {QueueLen: 1, Stealable: 1}},
		claims: map[string][]StolenJob{"http://ok:1": {{ID: "job-2", Spec: Spec{App: "x"}}}},
	}
	s, got := stealerOver(t, tr, "http://garbled:1", "http://ok:1")
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-2" {
		t.Fatalf("stole %v, want job-2", *got)
	}
	if s.Stats().Probes != 2 {
		t.Fatalf("probes = %d, want 2 (both peers probed)", s.Stats().Probes)
	}
}

// TestStealerPeerVanishesMidClaim: the deepest victim answers the
// probe, then refuses the claim (restarted, crashed, drained). The
// stealer must fall through to the next-best victim in the same round
// rather than giving up.
func TestStealerPeerVanishesMidClaim(t *testing.T) {
	tr := &fakeTransport{
		status: map[string]PeerStatus{
			"http://deep:1":    {QueueLen: 9, Stealable: 9},
			"http://shallow:1": {QueueLen: 1, Stealable: 1},
		},
		claimErr: map[string]error{"http://deep:1": errors.New("claim http://deep:1: connection refused")},
		claims:   map[string][]StolenJob{"http://shallow:1": {{ID: "job-3", Spec: Spec{App: "x"}}}},
	}
	s, got := stealerOver(t, tr, "http://deep:1", "http://shallow:1")
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-3" {
		t.Fatalf("stole %v, want job-3 from the fallback victim", *got)
	}
	if tr.claimed[0] != "http://deep:1" {
		t.Fatalf("claim order %v: deepest victim must be tried first", tr.claimed)
	}
	if s.Stats().Claims != 1 {
		t.Fatalf("claims = %d, want 1 (failed claim must not count)", s.Stats().Claims)
	}
}

// TestStealerPrefersHintedVictim: a shallow victim advertising a
// digest the thief has cached outranks a deeper one without hints —
// and the aimed claim is counted.
func TestStealerPrefersHintedVictim(t *testing.T) {
	tr := &fakeTransport{
		status: map[string]PeerStatus{
			"http://deep:1": {QueueLen: 9, Stealable: 9},
			"http://warm:1": {QueueLen: 1, Stealable: 1, StealableDigests: []string{"sha256:abc"}},
		},
		claims: map[string][]StolenJob{
			"http://deep:1": {{ID: "job-deep", Spec: Spec{App: "x"}}},
			"http://warm:1": {{ID: "job-warm", Spec: Spec{TraceDigest: "sha256:abc"}}},
		},
	}
	s, got := stealerOver(t, tr, "http://deep:1", "http://warm:1")
	s.HasCached = func(digest string) bool { return digest == "sha256:abc" }
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-warm" {
		t.Fatalf("stole %v, want the hinted job-warm", *got)
	}
	if st := s.Stats(); st.HintedClaims != 1 {
		t.Fatalf("hinted claims = %d, want 1", st.HintedClaims)
	}
}

// TestStealerHintIgnoredWithoutCache: the same advertisement moves
// nothing when the thief holds no matching artifacts — depth ordering
// rules.
func TestStealerHintIgnoredWithoutCache(t *testing.T) {
	tr := &fakeTransport{
		status: map[string]PeerStatus{
			"http://deep:1": {QueueLen: 9, Stealable: 9},
			"http://warm:1": {QueueLen: 1, Stealable: 1, StealableDigests: []string{"sha256:abc"}},
		},
		claims: map[string][]StolenJob{
			"http://deep:1": {{ID: "job-deep", Spec: Spec{App: "x"}}},
		},
	}
	s, got := stealerOver(t, tr, "http://deep:1", "http://warm:1")
	s.HasCached = func(string) bool { return false }
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-deep" {
		t.Fatalf("stole %v, want job-deep (depth order)", *got)
	}
	if st := s.Stats(); st.HintedClaims != 0 {
		t.Fatalf("hinted claims = %d, want 0", st.HintedClaims)
	}
}

// TestIdlestPeer: the shared admission-redirect policy skips unknown,
// failed and full peers, picks the shortest queue, and breaks ties on
// peer order.
func TestIdlestPeer(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	view := map[string]PeerStatus{
		"http://a:1": {QueueLen: 5, QueueCap: 8},
		"http://b:1": {QueueLen: 2, QueueCap: 8, Err: "probe failed"},
		"http://c:1": {QueueLen: 8, QueueCap: 8}, // full
		"http://d:1": {QueueLen: 3, QueueCap: 8},
	}
	if peer, ok := IdlestPeer(peers, view); !ok || peer != "http://d:1" {
		t.Fatalf("IdlestPeer = %q/%v, want http://d:1", peer, ok)
	}
	// Ties break on peer order.
	view["http://a:1"] = PeerStatus{QueueLen: 3, QueueCap: 8}
	if peer, _ := IdlestPeer(peers, view); peer != "http://a:1" {
		t.Fatalf("tie broke to %q, want the earlier http://a:1", peer)
	}
	// Nothing usable.
	if _, ok := IdlestPeer(peers, map[string]PeerStatus{}); ok {
		t.Fatal("empty view must report no peer")
	}
}

// TestQueueTryPop covers the non-blocking pop the simulator's event
// loop uses.
func TestQueueTryPop(t *testing.T) {
	q := NewQueue(2)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue reported a job")
	}
	q.Push(&Job{ID: "a"})
	q.Push(&Job{ID: "b"})
	if j, ok := q.TryPop(); !ok || j.ID != "a" {
		t.Fatalf("TryPop = %v/%v, want the oldest job a", j, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d after TryPop, want 1", q.Len())
	}
}

// TestQueueStealableDigests: newest-first (claim order), digestless
// and unstealable jobs skipped, bounded by max.
func TestQueueStealableDigests(t *testing.T) {
	q := NewQueue(8)
	q.Push(&Job{ID: "1", Spec: Spec{TraceDigest: "sha256:aa"}})
	q.Push(&Job{ID: "2", Spec: Spec{App: "x"}}) // stealable, no digest
	q.Push(&Job{ID: "3", Spec: Spec{TraceDigest: "sha256:bb"}})
	q.Push(&Job{ID: "4"}) // not stealable
	got := q.StealableDigests(0)
	if len(got) != 2 || got[0] != "sha256:bb" || got[1] != "sha256:aa" {
		t.Fatalf("digests = %v, want [sha256:bb sha256:aa]", got)
	}
	if got := q.StealableDigests(1); len(got) != 1 || got[0] != "sha256:bb" {
		t.Fatalf("bounded digests = %v, want [sha256:bb]", got)
	}
}

// TestTakeExpiredDeterministicOrder: equal deadlines (one coarse
// injected clock reading) must recover in job-ID order, not map order.
func TestTakeExpiredDeterministicOrder(t *testing.T) {
	now := time.Unix(100, 0)
	q := NewQueue(8)
	q.Now = func() time.Time { return now }
	for _, id := range []string{"c", "a", "b"} {
		q.Push(&Job{ID: id, Spec: Spec{App: "x"}})
	}
	for range 3 {
		if _, _, ok := q.Claim("thief", time.Second); !ok {
			t.Fatal("claim failed")
		}
	}
	expired := q.TakeExpired(now.Add(2 * time.Second))
	if len(expired) != 3 {
		t.Fatalf("recovered %d jobs, want 3", len(expired))
	}
	got := []string{expired[0].ID, expired[1].ID, expired[2].ID}
	for i, want := range []string{"a", "b", "c"} {
		if got[i] != want {
			t.Fatalf("recovery order %v, want [a b c]", got)
		}
	}
}

// TestGossipFakeClock: Seen stamps come from the injectable clock, both
// on successful observations and failures — and the stealer's own clock
// wins over the victim's, so a peer with a skewed wall clock cannot
// make its gossip entry look fresher (or staler) than it is.
func TestGossipFakeClock(t *testing.T) {
	clock := newFakeClock()
	g := NewGossip()
	g.Now = clock.Now

	g.Record("http://a", PeerStatus{QueueLen: 3})
	if got := g.Snapshot()["http://a"].Seen; !got.Equal(clock.Now()) {
		t.Fatalf("Seen = %v, want the fake clock's %v", got, clock.Now())
	}
	clock.Advance(time.Minute)
	g.RecordErr("http://a", errProbe{})
	if got := g.Snapshot()["http://a"].Seen; !got.Equal(clock.Now()) {
		t.Fatalf("Seen after error = %v, want %v", got, clock.Now())
	}
	// A caller that pre-stamped observation time keeps its stamp.
	stamp := clock.Advance(time.Minute)
	clock.Advance(time.Hour)
	g.Record("http://b", PeerStatus{Seen: stamp})
	if got := g.Snapshot()["http://b"].Seen; !got.Equal(stamp) {
		t.Fatalf("pre-stamped Seen = %v, want %v", got, stamp)
	}
}

type errProbe struct{}

func (errProbe) Error() string { return "probe failed" }
