package main

import (
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/jobs"
	"perfplay/internal/telemetry"
)

// This file is the daemon's observability wiring: the one metrics
// registry behind GET /metrics, the span timelines behind
// GET /jobs/{id}/trace, per-route HTTP instruments and the logger.

// Trace-store bounds: enough for every retained job (MaxJobs default)
// plus in-flight cross-node traffic.
const (
	traceStoreTraces = 2048
	traceSpanCap     = 256
)

// initTelemetry builds the registry, trace store, logger and the
// daemon-level instruments. Called once from NewServer, before any
// subsystem that registers its own families.
func (s *Server) initTelemetry(cfg Config) {
	s.metrics = telemetry.NewRegistry()
	s.traces = telemetry.NewTraceStore(traceStoreTraces, traceSpanCap)
	s.nodeName = cfg.NodeName
	s.logger = slog.Default().With("node", s.nodeName)

	s.httpDur = s.metrics.NewHistogramVec("perfplay_http_request_duration_seconds",
		"HTTP request latency by route pattern.", telemetry.DurationBuckets, "route")
	s.httpReqs = s.metrics.NewCounterVec("perfplay_http_requests_total",
		"HTTP requests by route pattern and status code.", "route", "code")
	s.jobsDone = s.metrics.NewCounterVec("perfplay_jobs_completed_total",
		"Analysis jobs finished, by terminal status.", "status")
	s.metrics.NewGaugeFunc("perfplay_jobs_running",
		"Jobs executing right now (local and stolen).", func() float64 { return float64(s.node.Running()) })
}

// defaultNodeName labels this process's spans and log lines when the
// operator does not pass one: the hostname, like selfURL's fallback.
func defaultNodeName() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "perfplayd"
}

// spanCtx is the tracing context one unit of work runs under: which
// trace to record into, which span is the parent, and — for work
// executed on behalf of another node — an override sink so the spans
// can also be shipped back to the job's owner. A zero spanCtx (empty
// trace) makes every span call a no-op, which is how untraced paths
// stay free.
type spanCtx struct {
	trace  string
	parent string
	// rec, when set, additionally receives every span recorded under
	// this context (the local store still gets them).
	rec func(telemetry.Span)
}

// incomingTrace derives the span context an HTTP request carries in its
// X-Perfplay-Trace/-Span headers; zero when the caller sent none (or
// sent garbage — tracing never fails a request).
func (s *Server) incomingTrace(r *http.Request) spanCtx {
	id := r.Header.Get(telemetry.TraceHeader)
	if !telemetry.ValidTraceID(id) {
		return spanCtx{}
	}
	return spanCtx{trace: id, parent: r.Header.Get(telemetry.SpanHeader)}
}

// recordSpan stores one fully-formed span under the context's trace —
// the low-level hook for spans whose ID was minted in advance (a job's
// root span, a parent whose children are recorded first).
func (s *Server) recordSpan(tc spanCtx, sp telemetry.Span) {
	if tc.trace == "" {
		return
	}
	if sp.Node == "" {
		sp.Node = s.nodeName
	}
	s.traces.Add(tc.trace, sp)
	if tc.rec != nil {
		tc.rec(sp)
	}
}

// span records one named, finished span under the context and returns
// its ID (empty under a zero context).
func (s *Server) span(tc spanCtx, name string, start, end time.Time, attrs map[string]string) string {
	if tc.trace == "" {
		return ""
	}
	sp := telemetry.Span{
		ID:     telemetry.NewSpanID(),
		Parent: tc.parent,
		Node:   s.nodeName,
		Name:   name,
		Start:  start,
		End:    end,
		Attrs:  attrs,
	}
	s.recordSpan(tc, sp)
	return sp.ID
}

// statusWriter captures the response code for the per-route counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps one route handler with the per-route duration
// histogram and request counter, labeled by the route *pattern* (never
// the raw URL — paths carry unbounded IDs and digests, and a labeled
// series per job ID would grow without bound).
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.httpDur.With(pattern).Observe(time.Since(start).Seconds())
		s.httpReqs.With(pattern, strconv.Itoa(sw.code)).Inc()
	}
}

// handleMetrics (GET /metrics) renders every registered family in the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// handleJobTrace (GET /jobs/{id}/trace) serves a job's distributed span
// timeline: every span this node recorded or imported for the job's
// trace ID, sorted by start time — including spans shipped back by the
// thief that stole the job, so one request to the submitting node
// reconstructs the whole cross-node story.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var traceID string
	if !s.node.With(id, func(j *jobs.Job) { traceID = j.TraceID }) {
		httpError(w, http.StatusNotFound, clusterapi.CodeJobNotFound, "no such job")
		return
	}
	if traceID == "" {
		httpError(w, http.StatusNotFound, clusterapi.CodeTraceUntracked, "job %s predates tracing (no trace ID)", id)
		return
	}
	spans, dropped, _ := s.traces.Get(traceID)
	if spans == nil {
		spans = []telemetry.Span{}
	}
	nodes := make(map[string]bool)
	for _, sp := range spans {
		nodes[sp.Node] = true
	}
	nodeList := make([]string, 0, len(nodes))
	for n := range nodes {
		nodeList = append(nodeList, n)
	}
	sort.Strings(nodeList)
	writeJSON(w, http.StatusOK, map[string]any{
		"job":           id,
		"trace_id":      traceID,
		"nodes":         nodeList,
		"spans":         spans,
		"dropped_spans": dropped,
	})
}
