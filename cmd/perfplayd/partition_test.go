package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/corpus"
	"perfplay/internal/jobs"
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
		Peers:  []string{severed},
		Policy: jobs.Policy{ProbeTimeout: 200 * time.Millisecond},
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
	srv.node.Gossip.Record(severed, clusterapi.PeerStatus{QueueLen: 0, QueueCap: 64, CacheKeys: []string{key}})

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
		Peers:  []string{slow.URL},
		Policy: jobs.Policy{ProbeTimeout: 150 * time.Millisecond},
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

// TestCacheFlagZeroEqualsExplicitDefault pins the one-declaration
// contract for the node's knobs: a zero-valued Config and a Config
// explicitly set to jobs.Defaults() resolve to the same Policy, every
// field of it jobs.Defaults(), and the flags print those same values
// as their defaults.
func TestCacheFlagZeroEqualsExplicitDefault(t *testing.T) {
	d := jobs.Defaults()
	zero := Config{}.withDefaults()
	explicit := Config{Policy: d}.withDefaults()
	for _, cfg := range []Config{zero, explicit} {
		if cfg.Policy != d {
			t.Fatalf("resolved policy %+v, want jobs.Defaults() %+v", cfg.Policy, d)
		}
		if cfg.CacheSize != defaultCacheSize {
			t.Fatalf("CacheSize = %d, want %d", cfg.CacheSize, defaultCacheSize)
		}
	}
	o, err := parseFlags(flag.NewFlagSet("perfplayd", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Policy != d || o.cfg.CacheSize != defaultCacheSize {
		t.Fatalf("flag defaults %+v (cache %d) drifted from jobs.Defaults() %+v (cache %d)",
			o.cfg.Policy, o.cfg.CacheSize, d, defaultCacheSize)
	}
}

// TestExplicitZeroFlagIsRefused: every flag whose Config field reads 0
// as "the default" refuses an explicit 0, naming the flag, instead of
// silently serving with the default. A negative -steal-interval still
// turns stealing off, and -corpus-max-bytes, whose printed default is
// 0, takes 0.
func TestExplicitZeroFlagIsRefused(t *testing.T) {
	parse := func(args ...string) (options, error) {
		fs := flag.NewFlagSet("perfplayd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return parseFlags(fs, args)
	}
	for _, name := range zeroIsDefault {
		_, err := parse("-"+name, "0")
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s 0: err = %v, want a refusal naming the flag", name, err)
		}
	}
	o, err := parse("-steal-interval", "-1s", "-corpus-max-bytes", "0", "-workers", "3")
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.StealInterval != -time.Second || o.cfg.Workers != 3 {
		t.Fatalf("parsed %+v", o.cfg.Policy)
	}
}
