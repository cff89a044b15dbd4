package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfplay/internal/cachepolicy"
	"perfplay/internal/corpus"
	"perfplay/internal/scheduler"
)

// blackholePeer models a partial partition: the listener accepts TCP
// connections (the route is up) but never writes a byte back (the far
// side is unreachable behind it). This is the failure mode a plain
// connection-refused test cannot catch — the probe has to burn its
// timeout, not fail fast.
func blackholePeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c) // hold open, never respond
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return "http://" + ln.Addr().String()
}

// TestPartitionSeversOnlyWarmPeerMidProbe (chaos): gossip honestly
// hints that the one warm peer holds this job's result — then the link
// to it partitions into a blackhole before the probe lands. The probe
// must burn its (short) timeout, degrade to local execution, and
// produce output byte-identical to a standalone node. Partition costs
// latency, never correctness — the same invariant the clustersim
// partition scenario checks on every event.
func TestPartitionSeversOnlyWarmPeerMidProbe(t *testing.T) {
	payload := recordedPayload(t, 3)
	digest := corpus.Digest(payload)
	refSrv, ref := testServer(t, Config{})
	if _, _, err := refSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	want := runJobReport(t, ref.URL, digestSpec(digest))

	severed := blackholePeer(t)
	srv, ts := testServer(t, Config{
		Peers:             []string{severed},
		CacheProbeTimeout: 200 * time.Millisecond,
	})
	if _, _, err := srv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	key, ok := srv.pl.CacheKeyFor(digestRequestLike(digest, true))
	if !ok {
		t.Fatal("no cache key for the digest request")
	}
	// The hint is genuine as of the last gossip exchange; the partition
	// happened after.
	srv.node.Gossip.Record(severed, scheduler.PeerStatus{QueueLen: 0, QueueCap: 64, CacheKeys: []string{key}})

	report := runJobReport(t, ts.URL, digestSpec(digest))
	if report != want {
		t.Fatalf("post-partition report differs from standalone:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if probes, hits := srv.cacheStats.probes.Int(), srv.cacheStats.remoteHits.Int(); probes < 1 || hits != 0 {
		t.Fatalf("probes=%d hits=%d, want ≥1 probes / 0 hits across the severed link", probes, hits)
	}
}

// TestProbeTimeoutRacesLocalExecution (chaos): the warm peer is alive
// but pathologically slow — slower than the probe timeout by an order
// of magnitude. The short timeout must win the race: the job degrades
// to local execution and completes long before the peer would have
// answered, with byte-identical output. This is the scenario that made
// the sweep pick a 250ms default over 2s (docs/POLICIES.md): on a
// blackholed or glacial link, every probe's timeout lands on the
// job-execution hot path.
func TestProbeTimeoutRacesLocalExecution(t *testing.T) {
	const hang = 3 * time.Second
	var probed atomic.Int32
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cache/") {
			probed.Add(1)
			time.Sleep(hang)
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(slow.Close)

	payload := recordedPayload(t, 3)
	digest := corpus.Digest(payload)
	refSrv, ref := testServer(t, Config{})
	if _, _, err := refSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	want := runJobReport(t, ref.URL, digestSpec(digest))

	srv, ts := testServer(t, Config{
		Peers:             []string{slow.URL},
		CacheProbeTimeout: 150 * time.Millisecond,
	})
	if _, _, err := srv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	report := runJobReport(t, ts.URL, digestSpec(digest))
	elapsed := time.Since(start)
	if report != want {
		t.Fatalf("timed-out-probe report differs from standalone:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if probed.Load() == 0 {
		t.Fatal("the slow peer was never probed — the race never happened")
	}
	if elapsed >= hang {
		t.Fatalf("job took %v — it waited out the peer's %v hang instead of timing out", elapsed, hang)
	}
	if hits := srv.cacheStats.remoteHits.Int(); hits != 0 {
		t.Fatalf("remote hits = %d, want 0 (the slow answer must be discarded)", hits)
	}
}

// TestCacheFlagZeroEqualsExplicitDefault pins the shared-defaults
// contract that replaced the "0 means N" convention: a zero-valued
// Config and a Config explicitly set to cachepolicy.Defaults() resolve
// to the same cache knobs, and both match the single source of truth
// the flag declarations print. If Defaults() and withDefaults ever
// drift, this fails.
func TestCacheFlagZeroEqualsExplicitDefault(t *testing.T) {
	d := cachepolicy.Defaults()
	zero := Config{}.withDefaults()
	explicit := Config{
		CacheProbeTimeout: d.ProbeTimeout,
		CacheProbeFanout:  d.ProbeFanout,
		CacheHintKeys:     d.HintKeys,
	}.withDefaults()

	for _, cfg := range []Config{zero, explicit} {
		if cfg.CacheProbeTimeout != d.ProbeTimeout {
			t.Fatalf("CacheProbeTimeout = %v, want %v", cfg.CacheProbeTimeout, d.ProbeTimeout)
		}
		if cfg.CacheProbeFanout != d.ProbeFanout {
			t.Fatalf("CacheProbeFanout = %d, want %d", cfg.CacheProbeFanout, d.ProbeFanout)
		}
		if cfg.CacheHintKeys != d.HintKeys {
			t.Fatalf("CacheHintKeys = %d, want %d", cfg.CacheHintKeys, d.HintKeys)
		}
	}
	// The flag declarations seed from the same struct, so -help prints
	// the true defaults rather than a "0 means N" convention.
	if cacheKnobs != d {
		t.Fatalf("flag-default knobs %+v drifted from cachepolicy.Defaults() %+v", cacheKnobs, d)
	}
}
