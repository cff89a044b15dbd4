package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"perfplay/internal/cachepolicy"
	"perfplay/internal/clusterapi"
	"perfplay/internal/pipeline"
	"perfplay/internal/scheduler"
	"perfplay/internal/telemetry"
)

// This file is the daemon half of cluster-shared result caching and
// steal-aware admission:
//
//	GET /cache/results/{key}  export one cached analysis result (wire form)
//	GET /cache/tables/{key}   export one cached verdict table
//	503 + Retry-Peer          a full queue redirects submitters to the
//	                          idlest peer instead of turning them away
//
// Before executing a cache-missed job whose trace is content-addressed,
// the job runner probes peers for the finished result by cache key —
// gossip-ordered (peers hinting the key first, then the idlest), with
// bounded fan-out and a short timeout. A hit imports the peer's rendered
// summary and settles the job with zero replays; the determinism contract
// (byte-identical reports regardless of where work lands) is what makes
// serving a peer's bytes indistinguishable from running locally. Every
// failure on this path degrades to local execution, never to an error.
//
// The decisions themselves — who to probe, in what order, how many,
// when to give up — live in internal/cachepolicy; this file is the HTTP
// adapter behind its Fetcher seam (fetch, decode, validate) plus the
// daemon-side accounting. internal/clustersim drives the same policy
// code over a virtual-clock transport, which is what lets the policy
// lab's sweep results (docs/POLICIES.md) speak for this daemon.

// cacheStats counts this node's cluster-cache and admission traffic.
// The counters live in the daemon's metrics registry — /healthz's
// cluster-cache section and /metrics render the same series, so the
// two surfaces cannot drift.
type cacheStats struct {
	// probes / remoteHits count result-cache probes to peers.
	probes, remoteHits *telemetry.Counter
	// tableProbes / tableImports count verdict-table probes and the
	// tables actually adopted.
	tableProbes, tableImports *telemetry.Counter
	// servedResults / servedTables count exports to probing peers.
	servedResults, servedTables *telemetry.Counter
	// admissionRedirects counts queue-full 503s that carried a
	// Retry-Peer header.
	admissionRedirects *telemetry.Counter
}

func newCacheStats(reg *telemetry.Registry) cacheStats {
	probes := reg.NewCounterVec("perfplay_cluster_cache_probes_total",
		"Cluster cache probes issued to peers, by artifact kind.", "kind")
	hits := reg.NewCounterVec("perfplay_cluster_cache_hits_total",
		"Cluster cache probes answered by a peer, by artifact kind.", "kind")
	served := reg.NewCounterVec("perfplay_cluster_cache_served_total",
		"Cache artifacts this node exported to probing peers, by kind.", "kind")
	return cacheStats{
		probes:        probes.With("result"),
		remoteHits:    hits.With("result"),
		tableProbes:   probes.With("table"),
		tableImports:  hits.With("table"),
		servedResults: served.With("result"),
		servedTables:  served.With("table"),
		admissionRedirects: reg.NewCounter("perfplay_admission_redirects_total",
			"Queue-full 503s that carried a Retry-Peer redirect."),
	}
}

func (c *cacheStats) snapshot() map[string]int64 {
	return map[string]int64{
		"probes":              c.probes.Int(),
		"remote_hits":         c.remoteHits.Int(),
		"table_probes":        c.tableProbes.Int(),
		"table_imports":       c.tableImports.Int(),
		"served_results":      c.servedResults.Int(),
		"served_tables":       c.servedTables.Int(),
		"admission_redirects": c.admissionRedirects.Int(),
	}
}

// handleCacheResult (GET /cache/results/{key}) exports one cached
// result in wire form, rendered at ?top= (0 = 5). The key is the
// path-escaped pipeline cache key; a miss is 404 — the prober's cue to
// try the next peer or run locally, never an error.
func (s *Server) handleCacheResult(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	key := r.PathValue("key")
	top, err := queryInt(r.URL.Query(), "top")
	if err != nil {
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "%v", err)
		return
	}
	wr, ok := s.pl.Export(key, top)
	s.span(s.incomingTrace(r), "cache_serve", start, time.Now(),
		map[string]string{"kind": "result", "outcome": probeOutcome(ok)})
	if !ok {
		httpError(w, http.StatusNotFound, clusterapi.CodeCacheMiss, "no cached result for key %q", key)
		return
	}
	s.cacheStats.servedResults.Inc()
	writeJSON(w, http.StatusOK, wr)
}

// handleCacheTable (GET /cache/tables/{key}) exports one cached verdict
// table — the replay-heavy half of classification — so a peer missing
// both caches can still run its job with zero reversed replays. The
// response echoes the key for importer-side validation.
func (s *Server) handleCacheTable(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	key := r.PathValue("key")
	wt, ok := s.pl.ExportTable(key)
	s.span(s.incomingTrace(r), "cache_serve", start, time.Now(),
		map[string]string{"kind": "table", "outcome": probeOutcome(ok)})
	if !ok {
		httpError(w, http.StatusNotFound, clusterapi.CodeCacheMiss, "no cached verdict table for key %q", key)
		return
	}
	s.cacheStats.servedTables.Inc()
	writeJSON(w, http.StatusOK, wt)
}

// probeOutcome renders a cache lookup's result as a span attribute.
func probeOutcome(ok bool) string {
	if ok {
		return "hit"
	}
	return "miss"
}

// cacheProbeOrder ranks this node's peers for one cache probe via the
// shared cachepolicy.ProbeOrder policy (hinted first, then idlest,
// failed-probe peers last), fed from the gossip view and bounded to
// CacheProbeFanout entries.
func (s *Server) cacheProbeOrder(hinted func(scheduler.PeerStatus) bool) []string {
	return cachepolicy.ProbeOrder(s.cfg.Peers, s.gossip.Snapshot(), hinted, s.cfg.CacheProbeFanout)
}

// prober builds the shared degrade-to-local probe policy over this
// node's HTTP transport, with the daemon's counters and spans attached
// as the observation hook — one cache_probe/table_probe span and one
// kind-labelled counter increment per attempt, exactly what the inline
// loops recorded before the policy was extracted.
func (s *Server) prober(tc spanCtx) *cachepolicy.Prober[*pipeline.WireResult, *pipeline.WireTable] {
	return &cachepolicy.Prober[*pipeline.WireResult, *pipeline.WireTable]{
		Transport: &httpCacheTransport{s: s, tc: tc},
		Fanout:    s.cfg.CacheProbeFanout,
		Observe: func(peer, kind string, hit bool, start, end time.Time) {
			name := "cache_probe"
			if kind == "table" {
				name = "table_probe"
				s.cacheStats.tableProbes.Inc()
			} else {
				s.cacheStats.probes.Inc()
			}
			s.span(tc, name, start, end,
				map[string]string{"peer": peer, "kind": kind, "outcome": probeOutcome(hit)})
		},
	}
}

// httpCacheTransport is the daemon's cachepolicy.Fetcher: fetch, decode
// and validate peer cache artifacts over HTTP, with the job's trace
// context riding as headers. Artifacts it returns are already verified;
// the policy layer never opens them.
type httpCacheTransport struct {
	s  *Server
	tc spanCtx
}

func (t *httpCacheTransport) FetchResult(peer, key string, topK int) (*pipeline.WireResult, error) {
	return t.s.fetchWireResult(peer, key, topK, t.tc)
}

func (t *httpCacheTransport) FetchTable(peer, key string) (*pipeline.WireTable, error) {
	return t.s.fetchWireTable(peer, key, t.tc)
}

// probePeerCaches asks peers for a finished result matching the
// request's cache key. Only digest-keyed (content-addressed) requests
// probe: their keys name trace bytes both sides can verify, and only
// those jobs are expensive enough to be worth a network round trip.
// ok=false — local miss everywhere — is the normal path, not a failure.
func (s *Server) probePeerCaches(req pipeline.Request, tc spanCtx) (*pipeline.WireResult, string, bool) {
	if len(s.cfg.Peers) == 0 || req.TraceDigest == "" {
		return nil, "", false
	}
	key, ok := s.pl.CacheKeyFor(req)
	if !ok || s.pl.HasResult(key) {
		return nil, "", false
	}
	wr, peer, ok := s.prober(tc).ProbeResult(s.cfg.Peers, s.gossip.Snapshot(), key, req.TopK)
	if !ok {
		return nil, "", false
	}
	s.cacheStats.remoteHits.Inc()
	return wr, peer, true
}

// probeGet issues one cluster-cache probe with the job's trace context
// riding as headers, so the serving peer's span lands on the same
// timeline as the probe span recorded here, and returns the body of a
// 200; anything else is an error — a miss.
func (s *Server) probeGet(urlStr string, tc spanCtx) (io.ReadCloser, error) {
	req, err := http.NewRequest(http.MethodGet, urlStr, nil)
	if err != nil {
		return nil, err
	}
	if tc.trace != "" {
		req.Header.Set(telemetry.TraceHeader, tc.trace)
		req.Header.Set(telemetry.SpanHeader, tc.parent)
	}
	resp, err := s.cacheClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("cache probe %s: status %d", urlStr, resp.StatusCode)
	}
	return resp.Body, nil
}

// fetchWireResult fetches and validates one peer's cached result. A body
// past maxSummaryBytes, or in any shape but the current one, fails to
// decode and so reads as a miss.
func (s *Server) fetchWireResult(peer, key string, topK int, tc spanCtx) (*pipeline.WireResult, error) {
	body, err := s.probeGet(peer+"/cache/results/"+url.PathEscape(key)+"?top="+strconv.Itoa(topK), tc)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return pipeline.ReadWireResult(io.LimitReader(body, maxSummaryBytes), key, topK)
}

// probePeerTables tries to import the job's verdict table from a peer
// when the result probe missed — the local run then classifies with
// zero reversed replays. Best-effort by design: every failure just
// means the local run pays its own replays. Probes are hint-matched by
// trace *digest*, not by the table key: gossiped hints are result-
// cache keys, and a peer hinting any result for this trace — whatever
// reporting flags its job used — ran the identify pass that built this
// very table.
func (s *Server) probePeerTables(req pipeline.Request, tc spanCtx) {
	if len(s.cfg.Peers) == 0 || req.TraceDigest == "" {
		return
	}
	key, ok := s.pl.TableKeyFor(req)
	if !ok || s.pl.HasTable(key) {
		return
	}
	s.prober(tc).ProbeTable(s.cfg.Peers, s.gossip.Snapshot(), req.TraceDigest, key,
		func(wt *pipeline.WireTable) bool {
			if wt.Validate(key) != nil || !s.pl.ImportTable(key, wt.Table) {
				return false
			}
			s.cacheStats.tableImports.Inc()
			return true
		})
}

// fetchWireTable fetches and decodes one peer's cached verdict table.
// Key validation happens in the accept hook: it needs the table key the
// prober matched by digest, and adoption (ImportTable) is the real
// acceptance test.
func (s *Server) fetchWireTable(peer, key string, tc spanCtx) (*pipeline.WireTable, error) {
	body, err := s.probeGet(peer+"/cache/tables/"+url.PathEscape(key), tc)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var wt pipeline.WireTable
	if err := json.NewDecoder(io.LimitReader(body, s.cfg.MaxTraceBytes)).Decode(&wt); err != nil {
		return nil, fmt.Errorf("table probe %s: %w", peer, err)
	}
	return &wt, nil
}

// rejectQueueFull answers a submit that found the queue full. With a
// peer known (or probed) to have queue headroom, the 503 carries a
// Retry-Peer header naming it — steal-aware admission: the node cannot
// take the job, but the cluster can, and the redirected submit lands
// where a thief would have dragged the job anyway.
func (s *Server) rejectQueueFull(w http.ResponseWriter, traceID string) {
	if peer, ok := s.idlestPeer(); ok {
		w.Header().Set("Retry-Peer", peer)
		s.cacheStats.admissionRedirects.Inc()
		now := time.Now()
		s.span(spanCtx{trace: traceID}, "admission_redirect", now, now,
			map[string]string{"peer": peer})
		httpError(w, http.StatusServiceUnavailable, clusterapi.CodeQueueFull,
			"job queue full (%d pending); retry at %s", s.cfg.QueueDepth, peer)
		return
	}
	httpError(w, http.StatusServiceUnavailable, clusterapi.CodeQueueFull, "job queue full (%d pending)", s.cfg.QueueDepth)
}

// idlestPeer picks the admission redirect target via the shared
// scheduler.IdlestPeer policy: the healthy peer with the shortest known
// queue that is not itself full. The gossip view is consulted first
// (the stealer refreshes it every tick, busy or not). When it yields no
// candidate AND no peer looks healthy in it — no stealer, nothing
// probed yet, or every entry is a stale failure — a bounded synchronous
// probe round stands in, so one bad round (or a disabled stealer)
// cannot suppress redirects forever. Healthy-but-full gossip entries do
// NOT trigger the fallback: that is an honest "no room", and probing
// every peer on every overloaded submit would turn an overload into a
// probe storm. ok=false means no peer is known to have room —
// redirecting a submitter into another full queue would just bounce
// them around the cluster.
func (s *Server) idlestPeer() (string, bool) {
	if len(s.cfg.Peers) == 0 {
		return "", false
	}
	snap := s.gossip.Snapshot()
	if peer, ok := scheduler.IdlestPeer(s.cfg.Peers, snap); ok {
		return peer, true
	}
	for _, peer := range s.cfg.Peers {
		if st, ok := snap[peer]; ok && st.Err == "" {
			return "", false // healthy but full: an honest "no room"
		}
	}
	if !s.admissionProbeAllowed() {
		return "", false
	}
	peers := s.cfg.Peers
	if n := s.cfg.CacheProbeFanout; n > 0 && len(peers) > n {
		peers = peers[:n]
	}
	for _, peer := range peers {
		st, err := scheduler.Probe(s.cacheClient, peer)
		if err != nil {
			s.gossip.RecordErr(peer, err)
			continue
		}
		s.gossip.Record(peer, st)
	}
	return scheduler.IdlestPeer(peers, s.gossip.Snapshot())
}

// admissionProbeAllowed rate-limits the admission path's synchronous
// fallback probing to one round per steal interval. The fallback
// blocks its handler for up to fanout × CacheProbeTimeout, and it runs
// exactly when the node is overloaded — without this bound, a submit
// storm against a full queue with unreachable peers would tie up a
// handler goroutine per rejection re-probing the same dead peers.
func (s *Server) admissionProbeAllowed() bool {
	// A non-positive StealInterval means "stealing disabled", not
	// "probe without bound" — clamp to a floor so the rate limit holds
	// exactly when the stealer is not around to refresh gossip.
	interval := s.cfg.StealInterval
	if interval <= 0 {
		interval = time.Second
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if now.Sub(s.lastAdmissionProbe) < interval {
		return false
	}
	s.lastAdmissionProbe = now
	return true
}
