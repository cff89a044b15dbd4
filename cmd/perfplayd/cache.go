package main

import (
	"net/http"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/jobs"
	"perfplay/internal/pipeline"
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
// When to probe, whom, and in what order live in internal/jobs (Start,
// RetryPeer); the fetches go through internal/peerclient, the node's
// jobs.Peer, and this file holds the serving side plus the daemon's
// accounting. internal/clustersim drives the same node over an in-memory
// jobs.Peer on a virtual clock, so the policy lab's sweep results
// (docs/POLICIES.md) speak for this daemon.

// cacheStats counts this node's cluster-cache and admission traffic in
// the metrics registry: probes issued and answered (tables: adopted),
// artifacts exported to probing peers, and queue-full 503s that carried
// a Retry-Peer.
type cacheStats struct {
	probes, remoteHits          *telemetry.Counter
	tableProbes, tableImports   *telemetry.Counter
	servedResults, servedTables *telemetry.Counter
	admissionRedirects          *telemetry.Counter
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

// handleCacheResult (GET /cache/results/{key}) exports one cached
// result in wire form, rendered at ?top= (0 = 5). The key is the
// path-escaped pipeline cache key; a miss is 404 — the prober's cue to
// try the next peer or run locally, never an error.
func (s *Server) handleCacheResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	top, err := queryInt(r.URL.Query(), "top")
	if err != nil {
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "%v", err)
		return
	}
	wr, ok := s.pl.Export(key, top)
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
	key := r.PathValue("key")
	wt, ok := s.pl.ExportTable(key)
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

// observeProbe is the node's probe observer for one job: one
// cache_probe/table_probe span and one kind-labelled counter increment
// per attempt.
func (s *Server) observeProbe(tc spanCtx) jobs.Observer {
	return func(peer, kind string, hit bool, start, end time.Time) {
		name := "cache_probe"
		if kind == "table" {
			name = "table_probe"
			s.cacheStats.tableProbes.Inc()
		} else {
			s.cacheStats.probes.Inc()
		}
		s.span(tc, name, start, end,
			map[string]string{"peer": peer, "kind": kind, "outcome": probeOutcome(hit)})
	}
}

// localCache is the node's view of the pipeline's result and verdict
// table caches.
type localCache struct{ s *Server }

func (c localCache) HasResult(key string) bool    { return c.s.pl.HasResult(key) }
func (c localCache) HasTable(key string) bool     { return c.s.pl.HasTable(key) }
func (c localCache) HasCached(digest string) bool { return c.s.pl.HasDigestCached(digest) }

// ImportTable adopts a peer's verdict table when it validates: the
// local run then classifies with zero reversed replays.
func (c localCache) ImportTable(key string, wt *pipeline.WireTable) bool {
	if wt.Validate(key) != nil || !c.s.pl.ImportTable(key, wt.Table) {
		return false
	}
	c.s.cacheStats.tableImports.Inc()
	return true
}

// rejectQueueFull answers a submit that found the queue full. With a
// peer known (or probed) to have queue headroom, the 503 carries a
// Retry-Peer header naming it — steal-aware admission: the node cannot
// take the job, but the cluster can, and the redirected submit lands
// where a thief would have dragged the job anyway.
func (s *Server) rejectQueueFull(w http.ResponseWriter) {
	if peer, ok := s.node.RetryPeer(); ok {
		w.Header().Set("Retry-Peer", peer)
		s.cacheStats.admissionRedirects.Inc()
		httpError(w, http.StatusServiceUnavailable, clusterapi.CodeQueueFull,
			"job queue full (%d pending); retry at %s", s.cfg.QueueDepth, peer)
		return
	}
	httpError(w, http.StatusServiceUnavailable, clusterapi.CodeQueueFull, "job queue full (%d pending)", s.cfg.QueueDepth)
}
