package jobs

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
)

// These tests hold the node's peer policy over a fakePeer: the steal
// round's victim order and failure handling, the gossip view and its
// clock, the admission redirect choice, and the cache probe walk.

// thief returns a node over peers whose stealer claims through p until
// its first steal fills it, and the jobs it executed.
func thief(p *fakePeer, peers ...string) (*harness, *Stealer[string, string], *[]clusterapi.StolenJob) {
	h := newHarness(Config[string, string]{Peers: peers})
	var got []clusterapi.StolenJob
	idle := true
	s := h.n.NewStealer("http://thief:1", p, func() bool { return idle }, func(victim string, j clusterapi.StolenJob) error {
		got = append(got, j)
		idle = false // one steal fills the fake node
		return nil
	})
	return h, s, &got
}

// TestStealerSkipsTimedOutPeer: a probe timeout on one peer must not
// stop the round — the healthy peer is still probed, recorded, and
// stolen from, and the failure lands in gossip as an Err entry.
func TestStealerSkipsTimedOutPeer(t *testing.T) {
	p := &fakePeer{
		probeErr: map[string]error{"http://dead:1": errors.New("probe http://dead:1: context deadline exceeded")},
		status:   map[string]clusterapi.PeerStatus{"http://live:1": {QueueLen: 3, Stealable: 3}},
		claims:   map[string][]clusterapi.StolenJob{"http://live:1": {{ID: "job-1", Spec: clusterapi.Spec{App: "x"}}}},
	}
	h, s, got := thief(p, "http://dead:1", "http://live:1")
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-1" {
		t.Fatalf("stole %v, want job-1 from the live peer", *got)
	}
	view := h.n.Gossip.Snapshot()
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
	p := &fakePeer{
		probeErr: map[string]error{
			"http://garbled:1": fmt.Errorf("probe http://garbled:1: invalid character '<' looking for beginning of value"),
		},
		status: map[string]clusterapi.PeerStatus{"http://ok:1": {QueueLen: 1, Stealable: 1}},
		claims: map[string][]clusterapi.StolenJob{"http://ok:1": {{ID: "job-2", Spec: clusterapi.Spec{App: "x"}}}},
	}
	h, s, got := thief(p, "http://garbled:1", "http://ok:1")
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-2" {
		t.Fatalf("stole %v, want job-2", *got)
	}
	if n := h.n.Metrics.StealProbes.Int(); n != 2 {
		t.Fatalf("probes = %d, want 2 (both peers probed)", n)
	}
}

// TestStealerPeerVanishesMidClaim: the deepest victim answers the
// probe, then refuses the claim (restarted, crashed, drained). The
// stealer must fall through to the next-best victim in the same round
// rather than giving up.
func TestStealerPeerVanishesMidClaim(t *testing.T) {
	p := &fakePeer{
		status: map[string]clusterapi.PeerStatus{
			"http://deep:1":    {QueueLen: 9, Stealable: 9},
			"http://shallow:1": {QueueLen: 1, Stealable: 1},
		},
		claimErr: map[string]error{"http://deep:1": errors.New("claim http://deep:1: connection refused")},
		claims:   map[string][]clusterapi.StolenJob{"http://shallow:1": {{ID: "job-3", Spec: clusterapi.Spec{App: "x"}}}},
	}
	h, s, got := thief(p, "http://deep:1", "http://shallow:1")
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-3" {
		t.Fatalf("stole %v, want job-3 from the fallback victim", *got)
	}
	if claimed := p.called("claim"); claimed[0] != "http://deep:1" {
		t.Fatalf("claim order %v: deepest victim must be tried first", claimed)
	}
	if n := h.n.Metrics.StealClaims.Int(); n != 1 {
		t.Fatalf("claims = %d, want 1 (failed claim must not count)", n)
	}
}

// TestStealerPrefersHintedVictim: a shallow victim advertising a
// digest the thief has cached outranks a deeper one without hints —
// and the aimed claim is counted.
func TestStealerPrefersHintedVictim(t *testing.T) {
	p := &fakePeer{
		status: map[string]clusterapi.PeerStatus{
			"http://deep:1": {QueueLen: 9, Stealable: 9},
			"http://warm:1": {QueueLen: 1, Stealable: 1, StealableDigests: []string{"sha256:abc"}},
		},
		claims: map[string][]clusterapi.StolenJob{
			"http://deep:1": {{ID: "job-deep", Spec: clusterapi.Spec{App: "x"}}},
			"http://warm:1": {{ID: "job-warm", Spec: clusterapi.Spec{TraceDigest: "sha256:abc"}}},
		},
	}
	h, s, got := thief(p, "http://deep:1", "http://warm:1")
	h.cache.digests["sha256:abc"] = true
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-warm" {
		t.Fatalf("stole %v, want the hinted job-warm", *got)
	}
	if n := h.n.Metrics.StealHintedClaims.Int(); n != 1 {
		t.Fatalf("hinted claims = %d, want 1", n)
	}
}

// TestStealerHintIgnoredWithoutCache: the same advertisement moves
// nothing when the thief holds no matching artifacts — depth ordering
// rules.
func TestStealerHintIgnoredWithoutCache(t *testing.T) {
	p := &fakePeer{
		status: map[string]clusterapi.PeerStatus{
			"http://deep:1": {QueueLen: 9, Stealable: 9},
			"http://warm:1": {QueueLen: 1, Stealable: 1, StealableDigests: []string{"sha256:abc"}},
		},
		claims: map[string][]clusterapi.StolenJob{
			"http://deep:1": {{ID: "job-deep", Spec: clusterapi.Spec{App: "x"}}},
		},
	}
	h, s, got := thief(p, "http://deep:1", "http://warm:1")
	s.Tick(nil)
	if len(*got) != 1 || (*got)[0].ID != "job-deep" {
		t.Fatalf("stole %v, want job-deep (depth order)", *got)
	}
	if n := h.n.Metrics.StealHintedClaims.Int(); n != 0 {
		t.Fatalf("hinted claims = %d, want 0", n)
	}
}

// TestIdlestPeer: the admission-redirect policy skips unknown, failed
// and full peers, picks the shortest queue, and breaks ties on peer
// order.
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

// TestGossipFakeClock: Seen stamps come from the node's clock, both on
// successful observations and failures, whatever Seen the status held —
// a peer with a skewed wall clock cannot make its gossip entry look
// fresher (or staler) than it is.
func TestGossipFakeClock(t *testing.T) {
	h := newHarness(Config[string, string]{})
	g := h.n.Gossip

	g.Record("http://a", clusterapi.PeerStatus{QueueLen: 3})
	if got := g.Snapshot()["http://a"].Seen; !got.Equal(h.clk.Now()) {
		t.Fatalf("Seen = %v, want the fake clock's %v", got, h.clk.Now())
	}
	h.clk.advance(time.Minute)
	g.RecordErr("http://a", errors.New("probe failed"))
	if got := g.Snapshot()["http://a"].Seen; !got.Equal(h.clk.Now()) {
		t.Fatalf("Seen after error = %v, want %v", got, h.clk.Now())
	}
	// The peer's own stamp is replaced by the observer's.
	g.Record("http://b", clusterapi.PeerStatus{Seen: h.clk.Now().Add(time.Hour)})
	if got := g.Snapshot()["http://b"].Seen; !got.Equal(h.clk.Now()) {
		t.Fatalf("peer-stamped Seen = %v, want the node clock's %v", got, h.clk.Now())
	}
}

func status(queueLen int, keys ...string) clusterapi.PeerStatus {
	return clusterapi.PeerStatus{QueueLen: queueLen, CacheKeys: keys}
}

func TestProbeOrderRanking(t *testing.T) {
	peers := []string{"a", "b", "c", "d", "e"}
	view := map[string]clusterapi.PeerStatus{
		"a": status(9),                  // healthy, deep queue
		"b": status(1),                  // healthy, idlest
		"c": status(5, "K"),             // hinted
		"d": {QueueLen: 0, Err: "down"}, // failed probe ranks with the unseen
		// e: never probed
	}
	hinted := func(st clusterapi.PeerStatus) bool { return st.HintsKey("K") }

	got := ProbeOrder(peers, view, hinted, 0)
	want := []string{"c", "b", "a", "d", "e"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ProbeOrder = %v, want %v", got, want)
	}

	if got := ProbeOrder(peers, view, hinted, 2); !reflect.DeepEqual(got, []string{"c", "b"}) {
		t.Fatalf("fanout-2 ProbeOrder = %v, want [c b]", got)
	}
}

func TestProbeOrderHintedButUnhealthyNotPromoted(t *testing.T) {
	view := map[string]clusterapi.PeerStatus{
		"a": {QueueLen: 0, CacheKeys: []string{"K"}, Err: "timeout"},
		"b": status(3),
	}
	got := ProbeOrder([]string{"a", "b"}, view,
		func(st clusterapi.PeerStatus) bool { return st.HintsKey("K") }, 0)
	if !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("ProbeOrder = %v, want the failed hinter demoted", got)
	}
}

func TestProbeOrderDoesNotMutateInput(t *testing.T) {
	peers := []string{"z", "a"}
	ProbeOrder(peers, map[string]clusterapi.PeerStatus{"a": status(0)}, func(clusterapi.PeerStatus) bool { return false }, 0)
	if !reflect.DeepEqual(peers, []string{"z", "a"}) {
		t.Fatalf("input slice mutated: %v", peers)
	}
}

// prober returns a node over peers that probes at most fanout of them
// (0 = all).
func prober(fanout int, peers ...string) *harness {
	return newHarness(Config[string, string]{Peers: peers, Policy: Policy{ProbeFanout: fanout}})
}

func TestProbeResultFirstHitWins(t *testing.T) {
	p := &fakePeer{results: map[string]string{"b": "artifact"}}
	view := map[string]clusterapi.PeerStatus{
		"a": status(0, "K"), // hinted and idlest, but holds nothing: must degrade past it
		"b": status(4),
		"c": status(1),
	}
	art, peer, ok := prober(3, "a", "b", "c").n.probeResult(p, view, "K", 5, nil)
	if !ok || art != "artifact" || peer != "b" {
		t.Fatalf("probeResult = (%q, %q, %v), want hit from b", art, peer, ok)
	}
	// Probe order was hinted-a, idlest-c, then b; a and c missed.
	if !reflect.DeepEqual(p.called("result"), []string{"a", "c", "b"}) {
		t.Fatalf("probed %v, want [a c b]", p.called("result"))
	}
}

func TestProbeResultMissEverywhereIsOK(t *testing.T) {
	art, peer, ok := prober(0, "a", "b").n.probeResult(&fakePeer{}, nil, "K", 5, nil)
	if ok || art != "" || peer != "" {
		t.Fatalf("probeResult = (%q, %q, %v), want clean miss", art, peer, ok)
	}
}

func TestProbeResultHonorsFanout(t *testing.T) {
	p := &fakePeer{}
	prober(2, "a", "b", "c", "d").n.probeResult(p, nil, "K", 5, nil)
	if len(p.calls) != 2 {
		t.Fatalf("probed %d peers, want fanout bound 2", len(p.calls))
	}
}

func TestProbeTableAcceptGate(t *testing.T) {
	p := &fakePeer{tables: map[string]string{"a": "corrupt", "b": "good"}}
	h := prober(0, "a", "b")
	peer, ok := h.n.probeTable(p, nil, "sha256:d", "T", nil)
	if !ok || peer != "b" {
		t.Fatalf("probeTable = (%q, %v), want accepted table from b", peer, ok)
	}
	if !reflect.DeepEqual(h.cache.imported, []string{"corrupt", "good"}) {
		t.Fatalf("import saw %v, want the corrupt table offered first", h.cache.imported)
	}
}

func TestProbeObserveHook(t *testing.T) {
	p := &fakePeer{results: map[string]string{"b": "x"}}
	var seen []string
	observe := func(peer, kind string, hit bool, start, end time.Time) {
		if start.IsZero() || end.Before(start) {
			t.Errorf("bad observation window [%v, %v]", start, end)
		}
		seen = append(seen, fmt.Sprintf("%s/%s/%v", peer, kind, hit))
	}
	prober(0, "a", "b").n.probeResult(p, nil, "K", 5, observe)
	if !reflect.DeepEqual(seen, []string{"a/result/false", "b/result/true"}) {
		t.Fatalf("observations %v", seen)
	}
}
