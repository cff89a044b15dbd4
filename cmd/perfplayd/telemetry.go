package main

import (
	"log/slog"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/jobs"
	"perfplay/internal/telemetry"
)

// This file is the daemon's observability wiring: the one metrics
// registry behind GET /metrics, the per-job span timelines behind
// GET /jobs/{id}/trace, per-route HTTP instruments and the logger.

// initTelemetry builds the registry, logger and the daemon-level
// instruments. Called once from NewServer, before any subsystem that
// registers its own families.
func (s *Server) initTelemetry(cfg Config) {
	s.metrics = telemetry.NewRegistry()
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

// maxJobSpans caps one job's timeline; a job that somehow records more
// keeps its first spans and counts the rest, so a runaway fan-out or a
// thief's oversized settle cannot grow a retained job.
const maxJobSpans = 256

// timeline is one job's spans: what this node recorded for it and what
// a thief shipped back. It lives on the job's jobState, under the
// node's lock, and is evicted with the job.
type timeline struct {
	spans   []telemetry.Span
	dropped int
}

// add keeps one span, or counts it once the timeline is full. Under the
// node's lock (a hook's, or With's) it is the job's span sink.
func (tl *timeline) add(sp telemetry.Span) {
	if len(tl.spans) >= maxJobSpans {
		tl.dropped++
		return
	}
	tl.spans = append(tl.spans, sp)
}

// spanCtx is the tracing context one unit of work runs under: the
// parent of the spans it records and the sink they go to — the job's
// own timeline for a job this node owns, the list shipped back with
// the settle for a stolen one. A zero spanCtx records nothing.
type spanCtx struct {
	parent string
	sink   func(telemetry.Span)
}

// timelineOf is the sink for a job this node owns, from outside the
// node's lock; a span for a job evicted meanwhile goes nowhere.
func (s *Server) timelineOf(id string) func(telemetry.Span) {
	return func(sp telemetry.Span) {
		s.node.With(id, func(j *jobs.Job) { stateOf(j).add(sp) })
	}
}

// recordSpan stamps one fully-formed span with this node's name and
// hands it to the context's sink — the low-level hook for spans whose
// ID was minted in advance (a job's root span, a parent whose children
// are recorded first).
func (s *Server) recordSpan(tc spanCtx, sp telemetry.Span) {
	if tc.sink == nil {
		return
	}
	sp.Node = s.nodeName
	tc.sink(sp)
}

// span records one named, finished span under the context and returns
// its ID (empty under a zero context).
func (s *Server) span(tc spanCtx, name string, start, end time.Time, attrs map[string]string) string {
	if tc.sink == nil {
		return ""
	}
	sp := telemetry.Span{
		ID:     telemetry.NewSpanID(),
		Parent: tc.parent,
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

// handleJobTrace (GET /jobs/{id}/trace) serves a job's span timeline,
// sorted by start time: every span this node recorded for the job,
// including those a thief shipped back with its settle, so one request
// to the submitting node reconstructs the whole cross-node story.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		traceID string
		spans   []telemetry.Span
		dropped int
	)
	if !s.node.With(id, func(j *jobs.Job) {
		st := stateOf(j)
		traceID, dropped = j.TraceID, st.dropped
		spans = append([]telemetry.Span{}, st.spans...)
	}) {
		httpError(w, http.StatusNotFound, clusterapi.CodeJobNotFound, "no such job")
		return
	}
	slices.SortStableFunc(spans, func(a, b telemetry.Span) int { return a.Start.Compare(b.Start) })
	nodes := []string{}
	for _, sp := range spans {
		nodes = append(nodes, sp.Node)
	}
	slices.Sort(nodes)
	writeJSON(w, http.StatusOK, map[string]any{
		"job":           id,
		"trace_id":      traceID,
		"nodes":         slices.Compact(nodes),
		"spans":         spans,
		"dropped_spans": dropped,
	})
}
