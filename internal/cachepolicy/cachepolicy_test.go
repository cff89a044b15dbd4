package cachepolicy

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
)

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

// fakeFetcher is an in-memory Fetcher over string artifacts.
var _ Fetcher[string, string] = (*fakeFetcher)(nil)

type fakeFetcher struct {
	results map[string]map[string]string // peer -> key -> artifact
	tables  map[string]map[string]string
	down    map[string]bool
	probed  []string
}

func (f *fakeFetcher) FetchResult(peer, key string, topK int) (string, error) {
	f.probed = append(f.probed, peer)
	if f.down[peer] {
		return "", errors.New("dial: connection refused")
	}
	if art, ok := f.results[peer][key]; ok {
		return art, nil
	}
	return "", errors.New("cache miss")
}

func (f *fakeFetcher) FetchTable(peer, key string) (string, error) {
	f.probed = append(f.probed, peer)
	if f.down[peer] {
		return "", errors.New("dial: connection refused")
	}
	if art, ok := f.tables[peer][key]; ok {
		return art, nil
	}
	return "", errors.New("cache miss")
}

func TestProbeResultFirstHitWins(t *testing.T) {
	tr := &fakeFetcher{
		results: map[string]map[string]string{"b": {"K": "artifact"}},
		down:    map[string]bool{"a": true},
	}
	p := &Prober[string, string]{Transport: tr, Fanout: 3}
	view := map[string]clusterapi.PeerStatus{
		"a": status(0, "K"), // hinted and idlest, but dead: must degrade past it
		"b": status(4),
		"c": status(1),
	}
	art, peer, ok := p.ProbeResult([]string{"a", "b", "c"}, view, "K", 5)
	if !ok || art != "artifact" || peer != "b" {
		t.Fatalf("ProbeResult = (%q, %q, %v), want hit from b", art, peer, ok)
	}
	// Probe order was hinted-a, idlest-c, then b; a errored, c missed.
	if !reflect.DeepEqual(tr.probed, []string{"a", "c", "b"}) {
		t.Fatalf("probed %v, want [a c b]", tr.probed)
	}
}

func TestProbeResultMissEverywhereIsOK(t *testing.T) {
	tr := &fakeFetcher{down: map[string]bool{"a": true, "b": true}}
	p := &Prober[string, string]{Transport: tr, Fanout: 0}
	art, peer, ok := p.ProbeResult([]string{"a", "b"}, nil, "K", 5)
	if ok || art != "" || peer != "" {
		t.Fatalf("ProbeResult = (%q, %q, %v), want clean miss", art, peer, ok)
	}
}

func TestProbeResultHonorsFanout(t *testing.T) {
	tr := &fakeFetcher{}
	p := &Prober[string, string]{Transport: tr, Fanout: 2}
	p.ProbeResult([]string{"a", "b", "c", "d"}, nil, "K", 5)
	if len(tr.probed) != 2 {
		t.Fatalf("probed %d peers, want fanout bound 2", len(tr.probed))
	}
}

func TestProbeTableAcceptGate(t *testing.T) {
	tr := &fakeFetcher{tables: map[string]map[string]string{
		"a": {"T": "corrupt"},
		"b": {"T": "good"},
	}}
	p := &Prober[string, string]{Transport: tr}
	var rejected []string
	peer, ok := p.ProbeTable([]string{"a", "b"}, nil, "sha256:d", "T", func(art string) bool {
		if art != "good" {
			rejected = append(rejected, art)
			return false
		}
		return true
	})
	if !ok || peer != "b" {
		t.Fatalf("ProbeTable = (%q, %v), want accepted table from b", peer, ok)
	}
	if !reflect.DeepEqual(rejected, []string{"corrupt"}) {
		t.Fatalf("accept saw %v, want the corrupt table offered first", rejected)
	}
}

func TestProbeObserveHook(t *testing.T) {
	tr := &fakeFetcher{results: map[string]map[string]string{"b": {"K": "x"}}}
	var seen []string
	p := &Prober[string, string]{
		Transport: tr,
		Observe: func(peer, kind string, hit bool, start, end time.Time) {
			if start.IsZero() || end.Before(start) {
				t.Errorf("bad observation window [%v, %v]", start, end)
			}
			seen = append(seen, fmt.Sprintf("%s/%s/%v", peer, kind, hit))
		},
	}
	p.ProbeResult([]string{"a", "b"}, nil, "K", 5)
	if !reflect.DeepEqual(seen, []string{"a/result/false", "b/result/true"}) {
		t.Fatalf("observations %v", seen)
	}
}
