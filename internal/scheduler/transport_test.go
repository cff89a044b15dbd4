package scheduler

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
)

// fakeTransport scripts per-peer behavior for the steal protocol with
// no HTTP anywhere — the error-path coverage httptest fixtures make
// awkward: timeouts, garbage statuses, peers vanishing between probe
// and claim.
type fakeTransport struct {
	status map[string]clusterapi.PeerStatus // probe responses
	errs   map[string]error                 // probe failures
	claims map[string][]clusterapi.StolenJob
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

func (f *fakeTransport) Probe(peer string) (clusterapi.PeerStatus, error) {
	f.probed = append(f.probed, peer)
	if err := f.errs[peer]; err != nil {
		return clusterapi.PeerStatus{}, err
	}
	return f.status[peer], nil
}

func (f *fakeTransport) Claim(peer, thief string) (clusterapi.StolenJob, bool, error) {
	f.claimed = append(f.claimed, peer)
	if err := f.claimErr[peer]; err != nil {
		return clusterapi.StolenJob{}, false, err
	}
	q := f.claims[peer]
	if len(q) == 0 {
		return clusterapi.StolenJob{}, false, nil
	}
	j := q[0]
	f.claims[peer] = q[1:]
	return j, true, nil
}

func (f *fakeTransport) Settle(victim, jobID string, res clusterapi.StealResult) error {
	f.settled = append(f.settled, victim+"/"+jobID)
	return f.err
}

func stealerOver(t *testing.T, tr Transport, peers ...string) (*Stealer, *[]clusterapi.StolenJob) {
	t.Helper()
	var got []clusterapi.StolenJob
	idle := true
	s := &Stealer{
		Self:      "http://thief:1",
		Peers:     peers,
		Transport: tr,
		Gossip:    NewGossip(),
		Idle:      func() bool { return idle },
		Execute: func(victim string, j clusterapi.StolenJob) error {
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
		status: map[string]clusterapi.PeerStatus{"http://live:1": {QueueLen: 3, Stealable: 3}},
		claims: map[string][]clusterapi.StolenJob{"http://live:1": {{ID: "job-1", Spec: clusterapi.Spec{App: "x"}}}},
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
		status: map[string]clusterapi.PeerStatus{"http://ok:1": {QueueLen: 1, Stealable: 1}},
		claims: map[string][]clusterapi.StolenJob{"http://ok:1": {{ID: "job-2", Spec: clusterapi.Spec{App: "x"}}}},
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
		status: map[string]clusterapi.PeerStatus{
			"http://deep:1":    {QueueLen: 9, Stealable: 9},
			"http://shallow:1": {QueueLen: 1, Stealable: 1},
		},
		claimErr: map[string]error{"http://deep:1": errors.New("claim http://deep:1: connection refused")},
		claims:   map[string][]clusterapi.StolenJob{"http://shallow:1": {{ID: "job-3", Spec: clusterapi.Spec{App: "x"}}}},
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
		status: map[string]clusterapi.PeerStatus{
			"http://deep:1": {QueueLen: 9, Stealable: 9},
			"http://warm:1": {QueueLen: 1, Stealable: 1, StealableDigests: []string{"sha256:abc"}},
		},
		claims: map[string][]clusterapi.StolenJob{
			"http://deep:1": {{ID: "job-deep", Spec: clusterapi.Spec{App: "x"}}},
			"http://warm:1": {{ID: "job-warm", Spec: clusterapi.Spec{TraceDigest: "sha256:abc"}}},
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
		status: map[string]clusterapi.PeerStatus{
			"http://deep:1": {QueueLen: 9, Stealable: 9},
			"http://warm:1": {QueueLen: 1, Stealable: 1, StealableDigests: []string{"sha256:abc"}},
		},
		claims: map[string][]clusterapi.StolenJob{
			"http://deep:1": {{ID: "job-deep", Spec: clusterapi.Spec{App: "x"}}},
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
	view := map[string]clusterapi.PeerStatus{
		"http://a:1": {QueueLen: 5, QueueCap: 8},
		"http://b:1": {QueueLen: 2, QueueCap: 8, Err: "probe failed"},
		"http://c:1": {QueueLen: 8, QueueCap: 8}, // full
		"http://d:1": {QueueLen: 3, QueueCap: 8},
	}
	if peer, ok := IdlestPeer(peers, view); !ok || peer != "http://d:1" {
		t.Fatalf("IdlestPeer = %q/%v, want http://d:1", peer, ok)
	}
	// Ties break on peer order.
	view["http://a:1"] = clusterapi.PeerStatus{QueueLen: 3, QueueCap: 8}
	if peer, _ := IdlestPeer(peers, view); peer != "http://a:1" {
		t.Fatalf("tie broke to %q, want the earlier http://a:1", peer)
	}
	// Nothing usable.
	if _, ok := IdlestPeer(peers, map[string]clusterapi.PeerStatus{}); ok {
		t.Fatal("empty view must report no peer")
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

	g.Record("http://a", clusterapi.PeerStatus{QueueLen: 3})
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
	g.Record("http://b", clusterapi.PeerStatus{Seen: stamp})
	if got := g.Snapshot()["http://b"].Seen; !got.Equal(stamp) {
		t.Fatalf("pre-stamped Seen = %v, want %v", got, stamp)
	}
}

// fakeClock is an injectable clock: time moves by Advance, not by
// sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

type errProbe struct{}

func (errProbe) Error() string { return "probe failed" }
