package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/corpus"
	"perfplay/internal/jobs"
	"perfplay/internal/peerclient"
	"perfplay/internal/pipeline"
	"perfplay/internal/trace"
)

// digestSpec is the analyze body for a stored-trace job with schemes.
func digestSpec(digest string) string {
	return fmt.Sprintf(`{"trace":%q,"schemes":true}`, digest)
}

// digestRequestLike mirrors handleAnalyze's digest path just enough to
// derive the cache keys a submitted job will use.
func digestRequestLike(digest string, schemes bool) pipeline.Request {
	return pipeline.Request{
		TraceLoader: func() (*trace.Trace, error) { return nil, nil },
		TraceDigest: digest,
		Schemes:     schemes,
	}
}

// TestPeerCacheHitOnColdNode is the tentpole acceptance test: a repeat
// job over a stored trace submitted to a *cold* node settles via a peer
// cache hit — zero replays, zero parses, not even a pipeline run — with
// report bytes identical to the warm node's (and therefore to a serial
// single-node run, which the pipeline goldens pin).
func TestPeerCacheHitOnColdNode(t *testing.T) {
	warmSrv, warm := testServer(t, Config{})
	payload := recordedPayload(t, 3)
	meta, _, err := warmSrv.corpus.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	want := runJobReport(t, warm.URL, digestSpec(meta.Digest))

	coldSrv, cold := testServer(t, Config{Peers: []string{warm.URL}})
	if _, _, err := coldSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, cold.URL+"/analyze", digestSpec(meta.Digest))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	j := waitDone(t, cold.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("job failed on the cold node: %v", j["error"])
	}
	if report, _ := j["report"].(string); report != want {
		t.Fatalf("peer-cache report differs:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if j["cache_hit"] != true || j["cache_peer"] != warm.URL {
		t.Fatalf("job not settled by the warm peer: cache_hit=%v cache_peer=%v",
			j["cache_hit"], j["cache_peer"])
	}
	// Zero replays: the cold node's pipeline never even ran — its own
	// result cache is empty and it recorded no hits or misses.
	if n := coldSrv.pl.CacheLen(); n != 0 {
		t.Fatalf("cold node cached %d local results, want 0 (no local run)", n)
	}
	coldMetrics := scrape(t, cold.URL)
	for series, n := range coldMetrics {
		if strings.HasPrefix(series, "perfplay_pipeline_cache_requests_total{") && n != 0 {
			t.Fatalf("cold node's pipeline ran: %s = %v", series, n)
		}
	}
	if got := coldSrv.cacheStats.remoteHits.Int(); got != 1 {
		t.Fatalf("remote hits = %d, want 1", got)
	}
	if got := warmSrv.cacheStats.servedResults.Int(); got != 1 {
		t.Fatalf("warm node served %d results, want 1", got)
	}

	// /metrics surfaces the exchange on both sides.
	if got := coldMetrics[`perfplay_cluster_cache_hits_total{kind="result"}`]; got != 1 {
		t.Fatalf("cold node's perfplay_cluster_cache_hits_total{kind=\"result\"} = %v, want 1", got)
	}
	if got := scrape(t, warm.URL)[`perfplay_cluster_cache_served_total{kind="result"}`]; got != 1 {
		t.Fatalf("warm node's perfplay_cluster_cache_served_total{kind=\"result\"} = %v, want 1", got)
	}
}

// TestPeerTableImport: when the result keys differ (different reporting
// flags) but the trace and identify options match, the cold node
// imports the warm node's verdict table and classifies locally with
// zero replay-table builds — still byte-identical to a standalone run.
func TestPeerTableImport(t *testing.T) {
	warmSrv, warm := testServer(t, Config{})
	payload := recordedPayload(t, 3)
	meta, _, err := warmSrv.corpus.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	// Warm with schemes=false: its result key will not match the cold
	// node's schemes=true job, but the verdict-table key will.
	runJobReport(t, warm.URL, fmt.Sprintf(`{"trace":%q}`, meta.Digest))

	refSrv, ref := testServer(t, Config{})
	if _, _, err := refSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	want := runJobReport(t, ref.URL, digestSpec(meta.Digest))

	coldSrv, cold := testServer(t, Config{Peers: []string{warm.URL}})
	if _, _, err := coldSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	report := runJobReport(t, cold.URL, digestSpec(meta.Digest))
	if report != want {
		t.Fatalf("table-import report differs:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if got := coldSrv.cacheStats.remoteHits.Int(); got != 0 {
		t.Fatalf("remote result hits = %d, want 0 (keys differ)", got)
	}
	if got := coldSrv.cacheStats.tableImports.Int(); got != 1 {
		t.Fatalf("table imports = %d, want 1", got)
	}
	if got := scrape(t, cold.URL)[`perfplay_pipeline_cache_requests_total{cache="table",outcome="hit"}`]; got != 1 {
		t.Fatalf("cold node rebuilt the table: %v table hits, want 1", got)
	}
	if got := warmSrv.cacheStats.servedTables.Int(); got != 1 {
		t.Fatalf("warm node served %d tables, want 1", got)
	}
}

// TestCacheEndpoints drives the export routes directly: escaped keys
// resolve, hits validate and carry the job's exact report bytes, and
// misses are 404s.
func TestCacheEndpoints(t *testing.T) {
	srv, ts := testServer(t, Config{})
	payload := recordedPayload(t, 3)
	meta, _, err := srv.corpus.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	want := runJobReport(t, ts.URL, digestSpec(meta.Digest))

	key, ok := srv.pl.CacheKeyFor(digestRequestLike(meta.Digest, true))
	if !ok {
		t.Fatal("no cache key for the digest request")
	}
	resp := mustGet(t, ts.URL+"/cache/results/"+url.PathEscape(key)+"?top=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache result: status %d", resp.StatusCode)
	}
	wr := decode[pipeline.WireResult](t, resp)
	if err := wr.Validate(key, 5); err != nil {
		t.Fatal(err)
	}
	if wr.Report != want {
		t.Fatalf("exported report differs from the job's:\nwant:\n%s\ngot:\n%s", want, wr.Report)
	}

	tkey, ok := srv.pl.TableKeyFor(digestRequestLike(meta.Digest, true))
	if !ok {
		t.Fatal("no table key for the digest request")
	}
	tresp := mustGet(t, ts.URL+"/cache/tables/"+url.PathEscape(tkey))
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("cache table: status %d", tresp.StatusCode)
	}
	wt := decode[pipeline.WireTable](t, tresp)
	if err := wt.Validate(tkey); err != nil {
		t.Fatalf("exported table invalid: %v", err)
	}

	for _, path := range []string{
		"/cache/results/" + url.PathEscape("no|such|key"),
		"/cache/tables/" + url.PathEscape("no|such|key"),
	} {
		miss := mustGet(t, ts.URL+path)
		miss.Body.Close()
		if miss.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, miss.StatusCode)
		}
	}

	bad := mustGet(t, ts.URL+"/cache/results/"+url.PathEscape(key)+"?top=abc")
	if e := apiError(t, bad); bad.StatusCode != http.StatusBadRequest || !strings.Contains(e.Message, "bad top ") {
		t.Fatalf("?top=abc: status %d, error %+v: want a 400 naming the parameter", bad.StatusCode, e)
	}
}

// TestAdmissionRedirectLandsOnIdlestPeer is the steal-aware admission
// acceptance test: a full node's 503 carries a Retry-Peer naming the
// idlest peer — skipping a peer that is itself full — the client
// follows it, and the redirected job completes byte-identical to the
// committed golden.
func TestAdmissionRedirectLandsOnIdlestPeer(t *testing.T) {
	// fullPeer: queue of one, occupied, no workers — would 503 too.
	_, fullPeerTS := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}})
	occupy := postJSON(t, fullPeerTS.URL+"/analyze", goldenSpecs[0].spec)
	occupy.Body.Close()
	if occupy.StatusCode != http.StatusAccepted {
		t.Fatalf("occupy full peer: status %d", occupy.StatusCode)
	}

	// idlePeer: a normal running daemon.
	_, idlePeerTS := testServer(t, Config{})

	// The submitted node: full, with the full peer listed FIRST — the
	// redirect must still pick the idle one.
	_, subTS := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}, Peers: []string{fullPeerTS.URL, idlePeerTS.URL}})
	first := postJSON(t, subTS.URL+"/analyze", goldenSpecs[0].spec)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("occupy submitted node: status %d", first.StatusCode)
	}

	remote := &peerclient.Client{}
	id, accepted, err := remote.Submit(subTS.URL, []byte(goldenSpecs[0].spec))
	if err != nil {
		t.Fatalf("redirected submit failed: %v", err)
	}
	if accepted != idlePeerTS.URL {
		t.Fatalf("job accepted at %s, want the idle peer %s", accepted, idlePeerTS.URL)
	}
	if got := scrape(t, subTS.URL)["perfplay_admission_redirects_total"]; got != 1 {
		t.Fatalf("perfplay_admission_redirects_total = %v, want 1", got)
	}
	j := waitDone(t, accepted, id)
	if j["status"] != statusDone {
		t.Fatalf("redirected job failed: %v", j["error"])
	}
	if report, want := j["report"].(string), goldenReport(t, goldenSpecs[0].name); report != want {
		t.Fatalf("redirected report differs from golden:\nwant:\n%s\ngot:\n%s", want, report)
	}
}

// TestRetryPeerLoopBound (chaos): two mutually-full nodes whose stale
// gossip claims the other is idle bounce a submit exactly once each —
// the client's visited set breaks the loop with an error instead of
// ping-ponging forever — and the backlogged jobs still complete locally
// with golden-identical output once capacity frees.
func TestRetryPeerLoopBound(t *testing.T) {
	aSrv, aTS := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}})
	bSrv, bTS := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}})
	aSrv.node.Peers = []string{bTS.URL}
	bSrv.node.Peers = []string{aTS.URL}

	// Occupy both queues, then poison both gossip views with stale
	// "peer is idle" observations.
	subA := decode[map[string]string](t, postJSON(t, aTS.URL+"/analyze", goldenSpecs[0].spec))
	subB := decode[map[string]string](t, postJSON(t, bTS.URL+"/analyze", goldenSpecs[0].spec))
	aSrv.node.Gossip.Record(bTS.URL, clusterapi.PeerStatus{QueueLen: 0, QueueCap: 1})
	bSrv.node.Gossip.Record(aTS.URL, clusterapi.PeerStatus{QueueLen: 0, QueueCap: 1})

	remote := &peerclient.Client{}
	start := time.Now()
	_, _, err := remote.Submit(aTS.URL, []byte(goldenSpecs[0].spec))
	if err == nil {
		t.Fatal("submit into a mutually-full cluster succeeded")
	}
	if !strings.Contains(err.Error(), "Retry-Peer loop") {
		t.Fatalf("err = %v, want a Retry-Peer loop diagnosis", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("loop bound took %v — did the client ping-pong?", elapsed)
	}
	if a, b := aSrv.cacheStats.admissionRedirects.Int(), bSrv.cacheStats.admissionRedirects.Int(); a != 1 || b != 1 {
		t.Fatalf("redirects a=%d b=%d, want 1 each", a, b)
	}

	// Degrade to local execution: arm the workers and both backlogged
	// jobs finish with golden bytes.
	aSrv.Start()
	bSrv.Start()
	for _, probe := range []struct{ base, id string }{{aTS.URL, subA["id"]}, {bTS.URL, subB["id"]}} {
		j := waitDone(t, probe.base, probe.id)
		if j["status"] != statusDone {
			t.Fatalf("backlogged job failed: %v", j["error"])
		}
		if report, want := j["report"].(string), goldenReport(t, goldenSpecs[0].name); report != want {
			t.Fatalf("post-loop local report differs from golden:\nwant:\n%s\ngot:\n%s", want, report)
		}
	}
}

// abortCacheProbes severs the connection on every /cache/ request — the
// peer "dies mid cache-probe".
type abortCacheProbes struct{}

func (abortCacheProbes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/cache/") {
		panic(http.ErrAbortHandler)
	}
	http.NotFound(w, r)
}

// TestCacheProbePeerDiesDegradesLocal (chaos): one peer is down before
// the probe (connection refused), the other dies mid-probe (connection
// severed). The job must degrade to local execution with output
// byte-identical to a standalone node — a cache probe can only ever
// save work, never change or lose a result.
func TestCacheProbePeerDiesDegradesLocal(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	aborting := httptest.NewServer(abortCacheProbes{})
	t.Cleanup(aborting.Close)

	payload := recordedPayload(t, 3)
	digest := corpus.Digest(payload)
	refSrv, ref := testServer(t, Config{})
	if _, _, err := refSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	want := runJobReport(t, ref.URL, digestSpec(digest))

	srv, ts := testServer(t, Config{
		Peers:  []string{deadURL, aborting.URL},
		Policy: jobs.Policy{ProbeTimeout: 500 * time.Millisecond},
	})
	if _, _, err := srv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/analyze", digestSpec(digest))
	sub := decode[map[string]string](t, resp)
	j := waitDone(t, ts.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("job failed with dying peers: %v", j["error"])
	}
	if report, _ := j["report"].(string); report != want {
		t.Fatalf("report with dying peers differs:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if j["cache_peer"] != nil {
		t.Fatalf("cache_peer = %v, want empty (local execution)", j["cache_peer"])
	}
	if probes, hits := srv.cacheStats.probes.Int(), srv.cacheStats.remoteHits.Int(); probes != 2 || hits != 0 {
		t.Fatalf("probes=%d hits=%d, want 2 probes / 0 hits", probes, hits)
	}
}

// TestStaleCacheHintFallsBack (chaos): gossip advertises a key the peer
// has since evicted (here: never computed — the same 404). The prober
// must treat the stale hint as an ordinary miss and run locally with
// identical output.
func TestStaleCacheHintFallsBack(t *testing.T) {
	_, empty := testServer(t, Config{})

	payload := recordedPayload(t, 3)
	refSrv, ref := testServer(t, Config{})
	if _, _, err := refSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	digest := corpus.Digest(payload)
	want := runJobReport(t, ref.URL, digestSpec(digest))

	srv, ts := testServer(t, Config{Peers: []string{empty.URL}})
	if _, _, err := srv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	key, ok := srv.pl.CacheKeyFor(digestRequestLike(digest, true))
	if !ok {
		t.Fatal("no cache key")
	}
	// Stale gossip: the peer once advertised this key (then evicted it).
	srv.node.Gossip.Record(empty.URL, clusterapi.PeerStatus{QueueLen: 0, QueueCap: 64, CacheKeys: []string{key}})

	report := runJobReport(t, ts.URL, digestSpec(digest))
	if report != want {
		t.Fatalf("stale-hint report differs:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if probes, hits := srv.cacheStats.probes.Int(), srv.cacheStats.remoteHits.Int(); probes < 1 || hits != 0 {
		t.Fatalf("probes=%d hits=%d, want ≥1 probes / 0 hits", probes, hits)
	}
}

// TestAdmissionRedirectRecoversAfterFailedProbes: a gossip view
// holding only stale probe failures (peers rebooted, say) must not
// suppress the on-demand fallback — the next queue-full submit
// re-probes and redirects to the recovered peer.
func TestAdmissionRedirectRecoversAfterFailedProbes(t *testing.T) {
	_, idleTS := testServer(t, Config{})
	srv, ts := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}, Peers: []string{idleTS.URL}})
	first := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec)
	first.Body.Close()
	srv.node.Gossip.RecordErr(idleTS.URL, errors.New("connection refused"))

	resp := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if rp := resp.Header.Get("Retry-Peer"); rp != idleTS.URL {
		t.Fatalf("Retry-Peer = %q, want the recovered peer %s", rp, idleTS.URL)
	}
}

// TestCacheProbeOrderRanking pins the gossip-ordered fan-out: peers
// hinting the key first, then healthy peers by queue depth; peers
// whose last probe failed rank with the unseen (their counts are
// stale) no matter how idle they once looked.
func TestCacheProbeOrderRanking(t *testing.T) {
	peers := []string{"http://failed", "http://busy", "http://hinted", "http://unseen"}
	srv, _ := testServer(t, Config{Peers: peers, Policy: jobs.Policy{ProbeFanout: 4}})
	srv.node.Gossip.Record("http://failed", clusterapi.PeerStatus{QueueLen: 0, QueueCap: 64})
	srv.node.Gossip.RecordErr("http://failed", errors.New("connection refused"))
	srv.node.Gossip.Record("http://busy", clusterapi.PeerStatus{QueueLen: 5, QueueCap: 64})
	srv.node.Gossip.Record("http://hinted", clusterapi.PeerStatus{QueueLen: 9, QueueCap: 64, CacheKeys: []string{"K"}})

	hints := func(key string) func(clusterapi.PeerStatus) bool {
		return func(st clusterapi.PeerStatus) bool { return st.HintsKey(key) }
	}
	order := func(hinted func(clusterapi.PeerStatus) bool) []string {
		return jobs.ProbeOrder(srv.node.Peers, srv.node.Gossip.Snapshot(), hinted, srv.node.ProbeFanout)
	}
	got := order(hints("K"))
	want := []string{"http://hinted", "http://busy", "http://failed", "http://unseen"}
	if !slices.Equal(got, want) {
		t.Fatalf("probe order = %v, want %v", got, want)
	}
	// Without the hint, depth decides among the healthy.
	got = order(hints("other-key"))
	if got[0] != "http://busy" {
		t.Fatalf("unhinted order = %v, want the healthy peer first", got)
	}
}

// TestQueueFullWithoutViablePeerOmitsRetryPeer: when every peer is
// known-full (honest gossip this time), the 503 must NOT name a
// redirect target — bouncing a submitter into another full queue helps
// no one.
func TestQueueFullWithoutViablePeerOmitsRetryPeer(t *testing.T) {
	_, peerTS := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}})
	occupy := postJSON(t, peerTS.URL+"/analyze", goldenSpecs[0].spec)
	occupy.Body.Close()

	srv, ts := saturatedVictim(t, Config{Policy: jobs.Policy{QueueDepth: 1}, Peers: []string{peerTS.URL}})
	first := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec)
	first.Body.Close()
	srv.node.Gossip.Record(peerTS.URL, clusterapi.PeerStatus{QueueLen: 1, QueueCap: 1})

	resp := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if rp := resp.Header.Get("Retry-Peer"); rp != "" {
		t.Fatalf("Retry-Peer = %q pointing at a known-full peer", rp)
	}
}

// TestQueuedDigestJobOutlivesItsBlob: the worker runs a queued job from
// the spec admission checked and does not check it again. A digest job
// whose blob is deleted while it waits is served by a warm result cache;
// with a cold one it fails where the trace is loaded.
func TestQueuedDigestJobOutlivesItsBlob(t *testing.T) {
	payload := recordedPayload(t, 3)
	for _, warm := range []bool{true, false} {
		srv, ts := saturatedVictim(t, Config{})
		meta, _, err := srv.corpus.Put(payload, false)
		if err != nil {
			t.Fatal(err)
		}
		id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", digestSpec(meta.Digest)))["id"]
		var spec clusterapi.Spec
		if !srv.node.With(id, func(j *jobs.Job) { spec = j.Spec }) {
			t.Fatalf("job %q not admitted", id)
		}
		var want string
		if warm {
			res, err := srv.pl.Run(srv.requestOf(spec, ""))
			if err != nil {
				t.Fatal(err)
			}
			want = res.Summary.At(res.Request.TopK).Report
		}
		resp, err := httpDelete(ts.URL + "/traces/" + meta.Digest)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete: status %d", resp.StatusCode)
		}

		srv.Start()
		j := waitDone(t, ts.URL, id)
		if !warm {
			if msg, _ := j["error"].(string); j["status"] != statusFailed || !strings.HasPrefix(msg, "pipeline: load trace: ") {
				t.Fatalf("cold cache: job = %v (%q), want failed loading the trace", j["status"], msg)
			}
			continue
		}
		if j["status"] != statusDone || j["cache_hit"] != true {
			t.Fatalf("warm cache: job = %v, cache_hit %v (%v), want a done cache hit", j["status"], j["cache_hit"], j["error"])
		}
		if report, _ := j["report"].(string); report != want || want == "" {
			t.Fatalf("warm cache: report differs from the cached run's")
		}
	}
}
