package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/corpus"
	"perfplay/internal/jobs"
	"perfplay/internal/journal"
	"perfplay/internal/peerclient"
	"perfplay/internal/pipeline"
	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// Config sizes the daemon. Zero means the default: jobs.Defaults() for
// the Policy knobs, and the value named per field for the rest.
type Config struct {
	// Policy holds the node's scheduling knobs. A negative
	// StealInterval disables stealing.
	jobs.Policy
	// CacheSize is the pipeline's LRU result cache capacity (0 = 128).
	CacheSize int
	// CorpusDir roots the content-addressed trace store behind /traces
	// and "trace": "sha256:..." analyze requests; empty disables it.
	CorpusDir string
	// CorpusMaxBytes caps the corpus; least-recently-used unpinned
	// traces are evicted beyond it (0 = 1 GiB).
	CorpusMaxBytes int64
	// JournalDir roots the crash-durable job journal a restarted daemon
	// replays (see journal.go); empty disables it.
	JournalDir string
	// Peers lists peer base URLs ("http://host:8080") to steal whole jobs
	// from, probe caches of, and redirect full-queue submitters to.
	Peers []string
	// NodeName labels this node's spans and log lines (empty = the
	// hostname).
	NodeName string
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/.
	EnablePprof bool
}

// defaultCacheSize is the result cache's capacity when Config leaves it
// zero.
const defaultCacheSize = 128

// validate rejects sizes and bounds no daemon can run with: a negative
// worker count panics Start, a negative queue depth rejects every
// submit, and a negative probe fan-out would silently probe every peer.
// Zero keeps meaning "the default". StealInterval is exempt: negative
// means "stealing off".
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Workers", int64(c.Workers)},
		{"QueueDepth", int64(c.QueueDepth)},
		{"CacheSize", int64(c.CacheSize)},
		{"MaxJobs", int64(c.MaxJobs)},
		{"CorpusMaxBytes", c.CorpusMaxBytes},
		{"Lease", int64(c.Lease)},
		{"ProbeTimeout", int64(c.ProbeTimeout)},
		{"ProbeFanout", int64(c.ProbeFanout)},
		{"HintKeys", int64(c.HintKeys)},
	} {
		if f.v < 0 {
			return fmt.Errorf("config: %s must not be negative (got %d)", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	c.Policy = c.Policy.Or(jobs.Defaults())
	if c.CacheSize == 0 {
		c.CacheSize = defaultCacheSize
	}
	if c.CorpusMaxBytes == 0 {
		c.CorpusMaxBytes = 1 << 30
	}
	if c.NodeName == "" {
		c.NodeName = defaultNodeName()
	}
	return c
}

// Job states.
const (
	statusQueued  = jobs.Queued
	statusRunning = jobs.Running
	statusDone    = jobs.Done
	statusFailed  = jobs.Failed
)

// node is the daemon's instance of the shared job lifecycle, probing
// peers' caches for wire results and verdict tables.
type node = jobs.Node[*pipeline.WireResult, *pipeline.WireTable]

// jobState is what the daemon keeps per job beside the lifecycle
// (jobs.Job.Local). Only the rendered summary and the span timeline
// outlive the run — never the trace — so retained jobs stay small.
type jobState struct {
	// changed is closed and replaced on every status change, so GET
	// /jobs/{id}?wait= wakes on a transition. Guarded by the node's lock,
	// as the timeline is.
	changed chan struct{}
	// spanID is the job's root span, minted at submit so children can
	// parent onto it before the root is recorded at completion.
	spanID string
	timeline
}

func stateOf(j *jobs.Job) *jobState { return j.Local.(*jobState) }

// newJob is an admitted or recovered job, described by its spec alone.
func newJob(spec clusterapi.Spec, traceID string) *jobs.Job {
	return &jobs.Job{
		TraceDigest: spec.TraceDigest,
		Seed:        spec.Seed,
		TraceID:     traceID,
		Spec:        spec,
		Local:       &jobState{changed: make(chan struct{}), spanID: telemetry.NewSpanID()},
	}
}

// analyzeSpec is the body of POST /analyze, whatever its Content-Type,
// and holds no other field. A job names a workload (App) or a stored
// trace (Trace); a trace reaches a job only through POST /traces.
type analyzeSpec struct {
	App     string  `json:"app"`
	Trace   string  `json:"trace"` // corpus digest ("sha256:..."); overrides App
	Threads int     `json:"threads"`
	Input   string  `json:"input"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	Top     int     `json:"top"`
	Schemes bool    `json:"schemes"`
	Races   bool    `json:"races"`
}

// Server is the perfplayd HTTP front end over one jobs.Node: handlers
// and the worker, reaper and stealer loops decode, call the node and
// encode; spans, long polls and pipeline.Run stay here as its hooks.
type Server struct {
	cfg    Config
	pl     *pipeline.Pipeline
	corpus *corpus.Store // nil when Config.CorpusDir is empty
	node   *node
	// cacheClient is the node's Peer for cache and admission probes,
	// under the short ProbeTimeout; peerClient the stealer's, for the
	// calls that move a whole job or a trace blob, under peerCallTimeout.
	cacheClient peerclient.Client
	peerClient  peerclient.Client
	cacheStats  cacheStats

	// The process-wide registry behind GET /metrics and the daemon's
	// instruments; see telemetry.go.
	metrics  *telemetry.Registry
	logger   *slog.Logger
	nodeName string
	httpDur  *telemetry.HistogramVec
	httpReqs *telemetry.CounterVec
	jobsDone *telemetry.CounterVec

	// journal is the crash-durable transition log (nil without
	// Config.JournalDir); see journal.go.
	journal *journal.Journal

	mu            sync.Mutex
	inflightBytes int64 // POST /traces bytes being buffered and stored
	stealer       *jobs.Stealer[*pipeline.WireResult, *pipeline.WireTable]

	wg      sync.WaitGroup
	stop    chan struct{} // closed on Close; stops reaper and stealer
	started bool
	closed  bool
}

// NewServer builds a server; call Start to launch its workers.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		cacheClient: peerclient.Client{HTTP: &http.Client{Timeout: cfg.ProbeTimeout}},
		peerClient:  peerclient.Client{HTTP: &http.Client{Timeout: peerCallTimeout}},
		stop:        make(chan struct{}),
	}
	// Every subsystem registers its instruments in the one registry.
	s.initTelemetry(cfg)
	s.pl = pipeline.New(pipeline.Options{CacheSize: cfg.CacheSize, Metrics: s.metrics})
	s.cacheStats = newCacheStats(s.metrics)
	s.node = jobs.New(jobs.Config[*pipeline.WireResult, *pipeline.WireTable]{
		Policy:  cfg.Policy,
		Peers:   cfg.Peers,
		Local:   localCache{s},
		Peer:    &s.cacheClient,
		Journal: s,
		Metrics: jobs.NewMetrics(s.metrics),
		Hooks: jobs.Hooks{
			Changed: func(j *jobs.Job) {
				st := stateOf(j)
				close(st.changed)
				st.changed = make(chan struct{})
			},
			Finished: s.finished,
			Expired: func(j *jobs.Job, now time.Time) {
				st := stateOf(j)
				s.logger.Warn("steal lease expired; re-queued locally",
					"job", j.ID, "thief", j.StolenBy, "trace", j.TraceID, "span", st.spanID)
				s.span(spanCtx{parent: st.spanID, sink: st.add}, "lease_expired",
					now, now, map[string]string{"job": j.ID, "thief": j.StolenBy})
			},
		},
	})
	s.node.RegisterGauges(s.metrics)
	if cfg.CorpusDir != "" {
		st, err := corpus.Open(cfg.CorpusDir, corpus.Options{MaxBytes: cfg.CorpusMaxBytes, Metrics: s.metrics})
		if err != nil {
			return nil, err
		}
		s.corpus = st
	}
	// The journal replays last: recovery needs the corpus (digest jobs
	// reload their traces from it), and must finish before Start lets a
	// worker pop anything.
	if cfg.JournalDir != "" {
		if err := s.openJournal(cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Start launches the executor goroutines and the steal-lease reaper.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	s.wg.Add(s.cfg.Workers + 1)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	go s.reaper()
}

// StartStealer launches this node's thief loop against Config.Peers;
// self is the URL peers see this node at, often known only once the
// listener binds. A no-op without peers or with a negative
// StealInterval.
func (s *Server) StartStealer(self string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stealer != nil || s.closed || len(s.cfg.Peers) == 0 || s.cfg.StealInterval < 0 {
		return
	}
	s.stealer = s.node.NewStealer(self, &s.peerClient, s.idle, s.executeStolen)
	st := s.stealer
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		st.Run(s.stop)
	}()
}

// idle reports whether this node has spare capacity for stolen work:
// nothing waiting locally and at least one worker unoccupied.
func (s *Server) idle() bool {
	return s.node.QueueLen() == 0 && s.node.Running() < s.cfg.Workers
}

// Close stops accepting jobs and waits for in-flight ones (including
// the reaper and stealer loops). Submissions racing with Close get a
// 503.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	s.node.Close()
	s.mu.Unlock()
	s.wg.Wait()
	// Jobs still queued or out on a lease stay live in the journal: the
	// next boot recovers them.
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.logger.Warn("journal close", "err", err)
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.node.Pop()
		if !ok {
			return
		}
		s.runJob(s.node.Begin(j))
	}
}

// reaper requeues jobs whose steal lease expired — the thief crashed or
// lost its network — so they run locally instead of being lost.
func (s *Server) reaper() {
	defer s.wg.Done()
	ticker := time.NewTicker(jobs.ReapInterval(s.cfg.Lease))
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.node.Reap()
		}
	}
}

func (s *Server) runJob(j jobs.Job) {
	popped := time.Now()
	release := s.node.Occupy(j.ID)
	tc := spanCtx{parent: stateOf(&j).spanID, sink: s.timelineOf(j.ID)}
	s.span(tc, "queue_wait", j.Submitted, popped, nil)
	// The spec is not checked again: a digest whose blob left the corpus
	// is still served by a cache hit, and fails to load without one.
	sum, cachePeer, err := s.execute(s.requestOf(j.Spec, ""), tc)
	release()
	// The pop left the job live in the journal on purpose — a crash
	// mid-run replays it as queued and re-runs it. Only Finish's
	// terminal record retires it.
	s.node.Finish(j.ID, sum, cachePeer, err)
}

// finished is the node's terminal hook, whichever path ended the job:
// it counts the job and records its root span.
func (s *Server) finished(j *jobs.Job) {
	st := stateOf(j)
	s.jobsDone.With(j.Status).Inc()
	s.recordSpan(spanCtx{sink: st.add}, telemetry.Span{
		ID: st.spanID, Name: "job", Start: j.Submitted, End: j.Finished,
		Attrs: map[string]string{"job": j.ID, "status": j.Status},
	})
}

// execute produces one job's summary, local or stolen. The node picks
// the source: the local result cache or the run (both pipeline.Run),
// or a peer's cached result — zero replays, zero parses. The returned
// peer is non-empty only for a peer's hit.
func (s *Server) execute(req pipeline.Request, tc spanCtx) (core.Rendered, string, error) {
	k := jobs.Keys{Digest: req.TraceDigest, TopK: req.TopK}
	k.Result, _ = s.pl.CacheKeyFor(req)
	k.Table, _ = s.pl.TableKeyFor(req)
	if src, wr, peer := s.node.Start(k, &s.cacheClient, s.observeProbe(tc)); src == jobs.PeerResult {
		s.cacheStats.remoteHits.Inc()
		sum := wr.Rendered
		sum.CacheHit = true
		return sum, peer, nil
	}
	// The pipeline records per-stage timings; execution itself is one
	// span with a stage:<name> child per pipeline stage actually run.
	execStart := time.Now()
	res, err := func() (res *pipeline.Result, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("analysis panicked: %v", r)
			}
		}()
		return s.pl.Run(req)
	}()
	if err != nil {
		return core.Rendered{}, "", err
	}
	execID := s.span(tc, "execute", execStart, time.Now(),
		map[string]string{"cache_hit": strconv.FormatBool(res.CacheHit)})
	// A cache hit carries the *original* run's timings; replaying those
	// as spans would put stale wall clocks on the timeline.
	if !res.CacheHit {
		stageTC := spanCtx{parent: execID, sink: tc.sink}
		for _, st := range res.Timings {
			if !st.Start.IsZero() {
				s.span(stageTC, "stage:"+st.Stage, st.Start, st.Start.Add(st.Wall), nil)
			}
		}
	}
	sum := res.Summary.At(res.Request.TopK)
	sum.CacheHit = res.CacheHit
	return sum, "", nil
}

// route pairs a mux pattern with its handler. The daemon's whole HTTP
// surface lives in this one table so the served mux, the -print-routes
// flag, and the docs/API.md drift check in CI can never disagree.
type route struct {
	pattern string
	handler http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{"POST /analyze", s.handleAnalyze},
		{"GET /steal", s.handleSteal},
		{"POST /jobs/claim", s.handleClaim},
		{"POST /jobs/{id}/result", s.handleJobResult},
		{"GET /jobs", s.handleJobList},
		{"GET /jobs/{id}", s.handleJob},
		{"GET /jobs/{id}/trace", s.handleJobTrace},
		{"GET /metrics", s.handleMetrics},
		{"GET /cache/results/{key}", s.handleCacheResult},
		{"GET /cache/tables/{key}", s.handleCacheTable},
		{"GET /healthz", s.handleHealthz},
		{"POST /traces", s.handleTraceUpload},
		{"GET /traces", s.handleTraceList},
		{"GET /traces/{digest}", s.handleTraceGet},
		{"DELETE /traces/{digest}", s.handleTraceDelete},
		{"PATCH /traces/{digest}", s.handleTracePin},
	}
}

// Handler returns the daemon's HTTP routes, each wrapped with the
// per-route duration histogram and request counter.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.HandleFunc(r.pattern, s.instrument(r.pattern, r.handler))
	}
	// pprof mounts outside the routes() table on purpose: it is an
	// opt-in debug surface, not part of the documented API the
	// -print-routes/docs drift check covers.
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// routePatterns lists every registered route pattern, sorted — the
// source of truth behind `perfplayd -print-routes`.
func routePatterns() []string {
	var s Server
	rs := s.routes()
	patterns := make([]string, len(rs))
	for i, r := range rs {
		patterns[i] = r.pattern
	}
	sort.Strings(patterns)
	return patterns
}

// Upload bounds. maxTraceBytes caps each POST /traces body.
// maxInflightUploadBytes bounds the POST /traces bytes being buffered
// and stored at once, so N concurrent uploads cannot hold
// N×maxTraceBytes. A chunked upload can overshoot by one body before
// its size is known.
const (
	maxTraceBytes          = 64 << 20
	maxInflightUploadBytes = 256 << 20
)

// reserveInflight reserves n upload bytes against
// maxInflightUploadBytes and returns their release func, or nil when
// the budget is full.
func (s *Server) reserveInflight(n int64) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflightBytes+n > maxInflightUploadBytes {
		return nil
	}
	s.inflightBytes += n
	return func() {
		s.mu.Lock()
		s.inflightBytes -= n
		s.mu.Unlock()
	}
}

func backlogFull(w http.ResponseWriter) {
	httpError(w, http.StatusServiceUnavailable, clusterapi.CodeTraceBacklogFull,
		"trace upload buffer full (limit %d bytes)", maxInflightUploadBytes)
}

// bufferBody buffers a request body under limit. A declared length over
// the limit is answered 413 before anything is read, as is a body that
// turns out longer; any other read failure — a body cut short or
// aborted — is the client's malformed request, 400. hint ends the 413
// message. ok=false means the response has been written.
func bufferBody(w http.ResponseWriter, r *http.Request, limit int64, hint string) (data []byte, ok bool) {
	tooLarge := func() {
		httpError(w, http.StatusRequestEntityTooLarge, clusterapi.CodeBodyTooLarge,
			"request body over %d bytes%s", limit, hint)
	}
	if r.ContentLength > limit {
		tooLarge()
		return nil, false
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var over *http.MaxBytesError
		if errors.As(err, &over) {
			tooLarge()
		} else {
			httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "request body: %v", err)
		}
		return nil, false
	}
	return buf.Bytes(), true
}

// requireCorpus 503s when the daemon runs without a trace store.
func (s *Server) requireCorpus(w http.ResponseWriter) bool {
	if s.corpus == nil {
		httpError(w, http.StatusServiceUnavailable, clusterapi.CodeCorpusDisabled,
			"trace corpus disabled (start perfplayd with -corpus)")
		return false
	}
	return true
}

// corpusError maps store errors onto HTTP statuses: caller mistakes to
// 4xx, capacity to 507, and internal store I/O failures to 500.
func corpusError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, corpus.ErrNotFound):
		httpError(w, http.StatusNotFound, clusterapi.CodeTraceNotFound, "%v", err)
	case errors.Is(err, corpus.ErrBudget):
		httpError(w, http.StatusInsufficientStorage, clusterapi.CodeCorpusFull, "%v", err)
	case errors.Is(err, corpus.ErrInvalid):
		httpError(w, http.StatusBadRequest, clusterapi.CodeInvalidTrace, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, clusterapi.CodeInternal, "%v", err)
	}
}

// handleTraceUpload stores a trace body (binary or JSON encoding) in
// the corpus. Re-uploading identical content is idempotent: one blob,
// the same digest, a 200 instead of a 201. ?pin=true exempts the trace
// from LRU eviction.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if !s.requireCorpus(w) {
		return
	}
	// The body is buffered whole while it is parsed and written, so it
	// draws on the in-flight byte budget: a known length before the read,
	// a chunked body once its size is known. A declared length over the
	// per-trace cap reserves nothing — bufferBody answers it 413 up front,
	// instead of holding budget that would 503 concurrent uploads while
	// the doomed body streams in.
	var release func()
	defer func() {
		if release != nil {
			release()
		}
	}()
	if n := r.ContentLength; n > 0 && n <= maxTraceBytes {
		if release = s.reserveInflight(n); release == nil {
			backlogFull(w)
			return
		}
	}
	data, ok := bufferBody(w, r, maxTraceBytes, "")
	if !ok {
		return
	}
	if release == nil {
		if release = s.reserveInflight(int64(len(data))); release == nil {
			backlogFull(w)
			return
		}
	}
	meta, created, err := s.corpus.Put(data, r.URL.Query().Get("pin") == "true")
	if err != nil {
		corpusError(w, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	w.Header().Set("Location", "/traces/"+meta.Digest)
	writeJSON(w, code, map[string]any{"created": created, "trace": meta})
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if !s.requireCorpus(w) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces":      s.corpus.List(),
		"total_bytes": s.corpus.TotalBytes(),
	})
}

// handleTraceGet streams the blob straight from disk, so concurrent
// downloads of large traces never buffer whole bodies in daemon memory.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if !s.requireCorpus(w) {
		return
	}
	blob, meta, err := s.corpus.OpenBlob(r.PathValue("digest"))
	if err != nil {
		corpusError(w, err)
		return
	}
	defer blob.Close()
	ct := "application/octet-stream"
	if meta.Format == trace.FormatJSON {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("Content-Length", strconv.FormatInt(meta.Size, 10))
	_, _ = io.Copy(w, blob)
}

func (s *Server) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	if !s.requireCorpus(w) {
		return
	}
	digest := r.PathValue("digest")
	if err := s.corpus.Delete(digest); err != nil {
		corpusError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": digest})
}

// handleTracePin flips a stored trace's eviction exemption:
// PATCH /traces/{digest}?pin=true|false.
func (s *Server) handleTracePin(w http.ResponseWriter, r *http.Request) {
	if !s.requireCorpus(w) {
		return
	}
	pin := r.URL.Query().Get("pin")
	if pin != "true" && pin != "false" {
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "pin must be ?pin=true or ?pin=false")
		return
	}
	digest := r.PathValue("digest")
	if err := s.corpus.Pin(digest, pin == "true"); err != nil {
		corpusError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"digest": digest, "pinned": pin == "true"})
}

// maxSpecBytes caps a POST /analyze body: a job spec is a few hundred
// bytes.
const maxSpecBytes = 16 << 10

// tracesHint ends every POST /analyze refusal of a body that is not a
// job spec: the one way a trace reaches a job.
const tracesHint = ` — store a trace with POST /traces, then submit {"trace":"sha256:…"}`

// handleAnalyze admits one job. Every body, whatever its Content-Type,
// is an analyzeSpec naming a workload or a stored trace; the job it
// admits is described by the clusterapi.Spec built from it.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// Every submission gets a distributed trace ID, minted here or
	// adopted from the client's X-Perfplay-Trace header, and echoed on
	// every response, rejections included.
	traceID := r.Header.Get(telemetry.TraceHeader)
	if !telemetry.ValidTraceID(traceID) {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set(telemetry.TraceHeader, traceID)
	// Cheap admission pre-checks before reading the body; Admit decides.
	if s.isClosed() {
		httpError(w, http.StatusServiceUnavailable, clusterapi.CodeShuttingDown, "server shutting down")
		return
	}
	if s.node.QueueLen() >= s.cfg.QueueDepth {
		s.rejectQueueFull(w)
		return
	}

	data, ok := bufferBody(w, r, maxSpecBytes, tracesHint)
	if !ok {
		return
	}
	// Strict: a field the spec lacks is an error, so a JSON trace — whose
	// "app" would otherwise read as a workload to re-record — or a
	// misspelt option is refused, never silently run.
	var body analyzeSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&body)
	if err == nil && dec.More() {
		err = errors.New("data after the spec")
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "bad job spec: %v%s", err, tracesHint)
		return
	}
	spec := clusterapi.Spec{TopK: body.Top, Schemes: body.Schemes, Races: body.Races}
	switch {
	case body.Trace != "":
		// A stored trace by digest, and nothing else: the workload fields
		// are inert for it. The blob is not read here; the worker loads
		// it on a cache miss only.
		if !s.requireCorpus(w) {
			return
		}
		// Touch, not Stat: a reference counts as use for the LRU even
		// when the result cache serves the job.
		meta, err := s.corpus.Touch(body.Trace)
		if err != nil {
			corpusError(w, err)
			return
		}
		spec.TraceDigest = meta.Digest
	case body.App != "":
		input, err := workload.ParseInputSize(body.Input)
		code := clusterapi.CodeBadRequest
		if err == nil {
			code, err = checkWorkloadSpec(body.App, body.Threads, int(input), body.Scale)
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, code, "%v", err)
			return
		}
		spec.App, spec.Threads, spec.Input = body.App, body.Threads, int(input)
		spec.Scale, spec.Seed = body.Scale, body.Seed
	default:
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest,
			`job spec names neither "app" nor "trace"%s`, tracesHint)
		return
	}

	j := newJob(spec, traceID)
	if !s.node.Admit(j) {
		if s.isClosed() {
			httpError(w, http.StatusServiceUnavailable, clusterapi.CodeShuttingDown, "server shutting down")
		} else {
			s.rejectQueueFull(w)
		}
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id": j.ID, "status": statusQueued, "trace_id": traceID,
	})
}

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// maxJobWait caps GET /jobs/{id}?wait= long-polls so a daemon never
// accumulates unbounded parked handlers behind a wedged job.
const maxJobWait = 60 * time.Second

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "bad wait %q: want a duration like 10s", ws)
			return
		}
		wait = min(d, maxJobWait)
	}

	id := r.PathValue("id")
	var snapshot jobs.Job
	var changed chan struct{}
	if !s.node.With(id, func(j *jobs.Job) { snapshot, changed = *j, stateOf(j).changed }) {
		httpError(w, http.StatusNotFound, clusterapi.CodeJobNotFound, "no such job")
		return
	}
	// Long-poll: park until the job's status changes (the node's Changed
	// hook closes the channel), the wait expires or the client leaves.
	if wait > 0 && (snapshot.Status == statusQueued || snapshot.Status == statusRunning) {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-changed:
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
		s.node.With(id, func(j *jobs.Job) { snapshot = *j })
	}
	writeJSON(w, http.StatusOK, &snapshot)
}

// jobListDefaultLimit / jobListMaxLimit bound a GET /jobs page.
const (
	jobListDefaultLimit = 100
	jobListMaxLimit     = 1000
)

// handleJobList (GET /jobs?state=&limit=) lists this node's retained
// jobs newest-first, filtered by ?state=; total counts every match
// before ?limit= cut the page.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	switch state {
	case "", statusQueued, statusRunning, statusDone, statusFailed:
	default:
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest,
			"bad state %q: want one of queued, running, done, failed", state)
		return
	}
	limit := jobListDefaultLimit
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest,
				"bad limit %q: want a positive integer", ls)
			return
		}
		limit = min(n, jobListMaxLimit)
	}
	list := []*jobs.Job{}
	s.node.Each(func(j *jobs.Job) {
		if state == "" || j.Status == state {
			snapshot := *j
			list = append(list, &snapshot)
		}
	})
	// Newest first by the number in the ID ("job-10" after "job-9").
	sort.Slice(list, func(i, k int) bool {
		si, iok := jobs.Seq(list[i].ID)
		sk, kok := jobs.Seq(list[k].ID)
		if iok && kok && si != sk {
			return si > sk
		}
		return list[i].ID > list[k].ID
	})
	total := len(list)
	if len(list) > limit {
		list = list[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list, "total": total})
}

// handleHealthz reports liveness and the node state /metrics has no
// family for. Every counter and gauge lives on /metrics only.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := map[string]int{}
	s.node.Each(func(j *jobs.Job) { counts[j.Status]++ })
	s.mu.Lock()
	stealing := s.stealer != nil
	s.mu.Unlock()
	// This node's backlog beside its gossip view of every peer's.
	steal := map[string]any{
		"enabled":   stealing,
		"stealable": s.node.Status(nil).Stealable,
	}
	if peers := s.node.Gossip.Snapshot(); len(peers) > 0 {
		steal["peer_queues"] = peers
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":            true,
		"jobs":          counts,
		"cached":        s.pl.CacheLen(),
		"cached_tables": s.pl.TableCacheLen(),
		"steal":         steal,
		"journal":       map[string]bool{"enabled": s.journal != nil},
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes the documented error envelope:
//
//	{"error": {"code": "queue_full", "message": "job queue full (64 pending)"}}
//
// Every non-2xx body on the API goes through here, so clients match on
// the stable machine-readable code while the message stays free to
// change. The codes are cataloged in internal/clusterapi and
// docs/API.md.
func httpError(w http.ResponseWriter, status int, code clusterapi.ErrorCode, format string, args ...any) {
	writeJSON(w, status, clusterapi.Envelope{Err: *clusterapi.NewError(code, format, args...)})
}

// queryInt reads one optional integer query parameter: absent is 0,
// malformed an error naming the parameter.
func queryInt(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want an integer", name, v)
	}
	return n, nil
}
