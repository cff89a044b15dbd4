package main

import (
	"bytes"
	"cmp"
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
	"strings"
	"sync"
	"time"

	"perfplay/internal/cachepolicy"
	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/corpus"
	"perfplay/internal/journal"
	"perfplay/internal/pipeline"
	"perfplay/internal/scheduler"
	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of job-executor goroutines (0 = 2), each
	// running one analysis at a time.
	Workers int
	// QueueDepth bounds the pending-job queue; submissions beyond it
	// are rejected with 503 so memory stays bounded under load (0 = 64).
	QueueDepth int
	// CacheSize is the pipeline's LRU result cache capacity (0 = 128).
	CacheSize int
	// MaxJobs bounds retained finished jobs; the oldest are evicted
	// (0 = 1024).
	MaxJobs int
	// MaxTraceBytes caps each uploaded trace body (0 = 64 MiB).
	MaxTraceBytes int64
	// MaxQueuedTraceBytes caps the sum of upload sizes across all
	// queued-but-unstarted trace jobs plus uploads still being
	// buffered in handlers — a parsed trace lives in memory until a
	// worker drains it, so the count-based queue bound alone would
	// still admit QueueDepth×MaxTraceBytes of retained trace data.
	// Chunked uploads (no Content-Length) can overshoot by at most one
	// MaxTraceBytes body each before their size is known (0 = 256 MiB).
	MaxQueuedTraceBytes int64
	// CorpusDir roots the content-addressed trace store behind the
	// /traces endpoints and "trace": "sha256:..." analyze requests.
	// Empty disables the corpus (those requests get 503).
	CorpusDir string
	// CorpusMaxBytes caps the corpus blob bytes; least-recently-used
	// unpinned traces are evicted beyond it (0 = 1 GiB).
	CorpusMaxBytes int64
	// JournalDir roots the crash-durable job journal: every queue
	// transition is fsynced there, and a restarted daemon replays it to
	// resurrect jobs that were queued (re-enqueued in admit order) or
	// out on a steal lease (requeued at the front, like an expired
	// lease) when the previous process died. Empty disables the journal
	// — a restart then loses the queue, the pre-journal behavior. The
	// perfplayd binary defaults it next to the corpus (-journal-dir).
	JournalDir string
	// Peers lists peer daemon base URLs ("http://host:8080"). When
	// non-empty this node steals whole queued jobs from them when idle,
	// probes their result/table caches before running a cache-missed
	// job, and redirects submitters to the idlest of them when its own
	// queue is full. A job never leaves its node mid-run, so a dead
	// peer degrades throughput, never correctness.
	Peers []string
	// StealLease bounds how long a peer that claimed a whole job
	// (POST /jobs/claim) may hold it before reporting a result; past
	// the lease the job is re-enqueued locally at the front of the
	// queue, so a crashed thief costs one lease of latency, never the
	// job (0 = 2 min).
	StealLease time.Duration
	// StealInterval is the idle-poll cadence of this node's own
	// stealer loop, started by StartStealer (0 = 1s; negative disables
	// stealing even when peers are configured).
	StealInterval time.Duration
	// CacheProbeTimeout bounds each cluster-cache probe (GET
	// /cache/results/{key}, GET /cache/tables/{key}) and each
	// on-demand admission probe. Short by design: a probe saves a
	// whole replay pipeline when it hits, but must cost almost nothing
	// when the peer is dead (0 = cachepolicy.Defaults().ProbeTimeout).
	CacheProbeTimeout time.Duration
	// CacheProbeFanout bounds how many peers one cache-missed job
	// probes before running locally (0 =
	// cachepolicy.Defaults().ProbeFanout; it also caps the admission
	// path's on-demand probe round).
	CacheProbeFanout int
	// CacheHintKeys bounds the recent result-cache keys gossiped in
	// each GET /steal response — the cache-population hints peers use
	// to aim their probes (0 = cachepolicy.Defaults().HintKeys).
	CacheHintKeys int
	// NodeName labels this node's spans and structured log lines, so a
	// cross-node trace reads as a story of named machines (0 = the
	// hostname).
	NodeName string
	// Logger receives the daemon's structured logs (nil =
	// slog.Default()). Every line carries the node name; job-lifecycle
	// lines carry job, trace and span IDs.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/ —
	// off by default because profiling endpoints leak operational
	// detail and cost CPU when scraped.
	EnablePprof bool
}

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
		{"MaxTraceBytes", c.MaxTraceBytes},
		{"MaxQueuedTraceBytes", c.MaxQueuedTraceBytes},
		{"CorpusMaxBytes", c.CorpusMaxBytes},
		{"StealLease", int64(c.StealLease)},
		{"CacheProbeTimeout", int64(c.CacheProbeTimeout)},
		{"CacheProbeFanout", int64(c.CacheProbeFanout)},
		{"CacheHintKeys", int64(c.CacheHintKeys)},
	} {
		if f.v < 0 {
			return fmt.Errorf("config: %s must not be negative (got %d)", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 1024
	}
	if c.MaxTraceBytes == 0 {
		c.MaxTraceBytes = 64 << 20
	}
	if c.MaxQueuedTraceBytes == 0 {
		c.MaxQueuedTraceBytes = 256 << 20
	}
	if c.CorpusMaxBytes == 0 {
		c.CorpusMaxBytes = 1 << 30
	}
	if c.StealLease == 0 {
		c.StealLease = 2 * time.Minute
	}
	if c.StealInterval == 0 {
		c.StealInterval = time.Second
	}
	// The cache-layer knobs share cachepolicy.Defaults() with the
	// perfplayd flag declarations and the clustersim policy lab, so the
	// sweep-backed values cannot drift between surfaces.
	d := cachepolicy.Defaults()
	if c.CacheProbeTimeout == 0 {
		c.CacheProbeTimeout = d.ProbeTimeout
	}
	if c.CacheProbeFanout == 0 {
		c.CacheProbeFanout = d.ProbeFanout
	}
	if c.CacheHintKeys == 0 {
		c.CacheHintKeys = d.HintKeys
	}
	if c.NodeName == "" {
		c.NodeName = defaultNodeName()
	}
	return c
}

// Job states.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusFailed  = "failed"
)

// job is one submitted analysis. Only the rendered summary is retained
// after completion — never the traces — so a long-running daemon's
// footprint is bounded by MaxJobs small records.
type job struct {
	ID        string    `json:"id"`
	Status    string    `json:"status"`
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished,omitzero"`
	Error     string    `json:"error,omitempty"`

	TraceDigest string `json:"trace_digest,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	// StolenBy is the peer currently holding (or that completed) this
	// job's steal lease — empty for jobs that ran locally.
	StolenBy string `json:"stolen_by,omitempty"`
	// CachePeer is the peer whose cluster cache settled this job (a
	// remote result-cache hit: zero local replays) — empty for jobs
	// computed locally or stolen.
	CachePeer string `json:"cache_peer,omitempty"`
	// TraceID is the job's distributed trace — minted at submit (or
	// adopted from the client's X-Perfplay-Trace header) and propagated
	// across every steal and cache probe. GET
	// /jobs/{id}/trace serves the recorded timeline.
	TraceID string `json:"trace_id,omitempty"`

	// Rendered is the finished summary at the job's report depth — the
	// same struct whether a local worker filled it, a thief posted it
	// back (POST /jobs/{id}/result) or a peer's cache exported it, which
	// is what makes the job's JSON field for field the same wherever it
	// was computed.
	core.Rendered

	req pipeline.Request
	// traceBytes is the uploaded body size (an estimate of the parsed
	// trace's footprint) counted against MaxQueuedTraceBytes until the
	// job starts.
	traceBytes int64
	// changed is closed (and replaced) on every status transition, so
	// GET /jobs/{id}?wait=... long-polls wake on state change rather
	// than spinning. Guarded by Server.mu.
	changed chan struct{}
	// spanID is the job's root span, minted at submit so children
	// (queue wait, execution — local, stolen or cache-served) can
	// parent onto it before the root itself is recorded at completion.
	spanID string
}

// notifyLocked broadcasts a job state change: every waiting long-poll
// wakes, and later waiters get a fresh channel. Call with Server.mu
// held.
func (j *job) notifyLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// analyzeSpec is the JSON body of POST /analyze.
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

// Server is the perfplayd HTTP front end: a bounded *stealable* job
// queue drained by a fixed set of workers, each running one job's
// pipeline at a time. Idle peers may claim whole queued jobs over HTTP
// and run them remotely (see internal/scheduler); the server's own
// stealer loop does the same against its peers.
type Server struct {
	cfg    Config
	pl     *pipeline.Pipeline
	corpus *corpus.Store // nil when Config.CorpusDir is empty
	queue  *scheduler.Queue
	gossip *scheduler.Gossip
	// cacheClient issues cluster-cache and admission probes under the
	// short CacheProbeTimeout; peerClient carries the calls that move a
	// whole job or a trace blob (steal probe/claim/settle, trace fetch)
	// under peerCallTimeout.
	cacheClient *http.Client
	peerClient  *http.Client
	// cacheStats counts cluster-cache traffic (see cache.go); its
	// counters live in the metrics registry, so /healthz and /metrics
	// render the same numbers.
	cacheStats cacheStats

	// metrics is the process-wide registry behind GET /metrics; every
	// subsystem (pipeline, scheduler, corpus, the handlers) registers
	// its instruments here. traces holds per-job span timelines behind
	// GET /jobs/{id}/trace. See telemetry.go.
	metrics      *telemetry.Registry
	traces       *telemetry.TraceStore
	logger       *slog.Logger
	nodeName     string
	schedMetrics *scheduler.Metrics
	httpDur      *telemetry.HistogramVec
	httpReqs     *telemetry.CounterVec
	jobsDone     *telemetry.CounterVec

	// journal is the crash-durable transition log (nil when
	// Config.JournalDir is empty); recovered/jrecovered count what the
	// boot-time replay resurrected. See journal.go.
	journal    *journal.Journal
	jrecovered *telemetry.CounterVec
	recovered  recoveredStats

	mu               sync.Mutex
	jobs             map[string]*job
	order            []string // finished job IDs, oldest first, for eviction
	seq              int64
	queuedTraceBytes int64 // upload bytes awaiting a worker
	inflightBytes    int64 // upload bytes being buffered/parsed in handlers
	running          int   // jobs executing right now (local + stolen)
	stealer          *scheduler.Stealer
	// lastAdmissionProbe rate-limits idlestPeer's synchronous fallback
	// probe round (see admissionProbeAllowed).
	lastAdmissionProbe time.Time

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
		queue:       scheduler.NewQueue(cfg.QueueDepth),
		gossip:      scheduler.NewGossip(),
		jobs:        make(map[string]*job),
		cacheClient: &http.Client{Timeout: cfg.CacheProbeTimeout},
		peerClient:  &http.Client{Timeout: peerCallTimeout},
		stop:        make(chan struct{}),
	}
	// The registry must exist before any subsystem that registers
	// instruments into it — the pipeline, the corpus, the queue and the
	// cluster-cache counters all share it.
	s.initTelemetry(cfg)
	s.pl = pipeline.New(pipeline.Options{CacheSize: cfg.CacheSize, Metrics: s.metrics})
	s.queue.Metrics = s.schedMetrics
	s.cacheStats = newCacheStats(s.metrics)
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

// StartStealer launches this node's thief loop against Config.Peers.
// self is the base URL peers can reach this node at (victim-side
// diagnostics only). A no-op without peers or with a negative
// StealInterval. Separate from Start because the advertised URL is
// often only known after the listener binds (httptest, ephemeral
// ports).
func (s *Server) StartStealer(self string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stealer != nil || s.closed || len(s.cfg.Peers) == 0 || s.cfg.StealInterval < 0 {
		return
	}
	s.stealer = &scheduler.Stealer{
		Self:      self,
		Peers:     s.cfg.Peers,
		Interval:  s.cfg.StealInterval,
		Idle:      s.idle,
		Execute:   s.executeStolen,
		Gossip:    s.gossip,
		Transport: s.stealTransport(),
		// Hint-driven victim ordering: prefer stealing jobs whose trace
		// artifacts (result or verdict table) are already cached here.
		HasCached: s.pl.HasDigestCached,
		Metrics:   s.schedMetrics,
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len() == 0 && s.running < s.cfg.Workers
}

// Close stops accepting jobs and waits for in-flight ones (including
// the reaper and stealer loops). Submissions racing with Close get a
// 503 — enqueue checks the closed flag under the mutex.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stop)
	s.queue.Close()
	s.mu.Unlock()
	s.wg.Wait()
	// Close the journal only after every worker and the reaper have
	// stopped appending. Jobs still queued or claimed at this point
	// stay live in it — that is the durability contract: the next boot
	// recovers them.
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.logger.Warn("journal close", "err", err)
		}
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		qj, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(qj.Payload.(*job))
	}
}

// reaper re-enqueues jobs whose steal lease expired — the thief crashed
// or lost its network — so they run locally instead of being lost.
func (s *Server) reaper() {
	defer s.wg.Done()
	interval := min(s.cfg.StealLease/4, time.Second)
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C:
			expired := s.queue.TakeExpired(now)
			if len(expired) == 0 {
				continue
			}
			// Reset each job's visible state BEFORE Requeue makes it
			// poppable again — a worker could otherwise pop and even
			// finish the job (result-cache hit) and then have its
			// terminal status clobbered back to "queued" here.
			s.mu.Lock()
			for _, qj := range expired {
				j := qj.Payload.(*job)
				s.logger.Warn("steal lease expired; re-queued locally",
					"job", j.ID, "thief", j.StolenBy, "trace", j.TraceID, "span", j.spanID)
				s.span(spanCtx{trace: j.TraceID, parent: j.spanID}, "lease_expired",
					now, now, map[string]string{"job": j.ID, "thief": j.StolenBy})
				j.StolenBy = ""
				j.Status = statusQueued
				j.notifyLocked()
			}
			s.mu.Unlock()
			// A closed queue admits no requeues: the jobs come back as
			// dropped (journaled as abandoned by the queue) and are
			// marked failed so their clients see the loss instead of a
			// "queued" job no worker will ever run.
			if dropped := s.queue.Requeue(expired); len(dropped) > 0 {
				s.mu.Lock()
				for _, qj := range dropped {
					j := qj.Payload.(*job)
					s.finishLocked(j, core.Rendered{}, errors.New("abandoned: steal lease expired while the server was shutting down"))
					s.logger.Warn("expired-lease job abandoned: queue closed", "job", j.ID)
				}
				s.mu.Unlock()
			}
		}
	}
}

func (s *Server) runJob(j *job) {
	popped := time.Now()
	s.mu.Lock()
	j.Status = statusRunning
	j.notifyLocked()
	s.queuedTraceBytes -= j.traceBytes // the upload has left the queue
	s.running++
	submitted := j.Submitted
	tc := spanCtx{trace: j.TraceID, parent: j.spanID}
	s.mu.Unlock()
	s.span(tc, "queue_wait", submitted, popped, nil)

	sum, cachePeer, err := s.executeJob(j.req, tc)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	j.CachePeer = cachePeer
	// The pop left the job live in the journal on purpose — a crash
	// mid-run replays it as queued and re-runs it. Only a terminal
	// status retires the record.
	if err != nil {
		s.journalTerminal(journal.OpFailed, j.ID)
	} else {
		s.journalTerminal(journal.OpSettled, j.ID)
	}
	s.finishLocked(j, sum, err)
}

// finishLocked is the one place a job becomes terminal, whichever path
// ended it — a local run, a thief's report, a lease that expired into a
// closed queue, a loss at boot: status with summary or error, waiters,
// the completed counter, the root span and retention. Journal appends
// stay with the callers, where they differ. Call with Server.mu held
// (or before any concurrency, from NewServer).
func (s *Server) finishLocked(j *job, sum core.Rendered, err error) {
	j.Finished = time.Now()
	j.req = pipeline.Request{} // release any uploaded trace
	if err != nil {
		j.Status, j.Error = statusFailed, err.Error()
	} else {
		j.Status, j.Rendered = statusDone, sum
	}
	j.notifyLocked()
	s.jobsDone.With(j.Status).Inc()
	s.recordSpan(spanCtx{trace: j.TraceID, parent: j.spanID}, telemetry.Span{
		ID: j.spanID, Name: "job", Start: j.Submitted, End: j.Finished,
		Attrs: map[string]string{"job": j.ID, "status": j.Status},
	})
	s.order = append(s.order, j.ID)
	s.evictLocked()
}

// executeJob produces one job's summary: settled from a peer's cluster
// cache when the local cache misses but a peer's hits (zero replays,
// zero parses — the wire result is the finished summary), else by running
// the pipeline locally — after best-effort importing the job's verdict
// table from a peer, so even the local run can skip every reversed
// replay. A job the local result cache can already answer probes no
// one: the run below settles instantly without consulting the table
// cache, so even an evicted table would be wasted network I/O. The
// returned peer is non-empty only for remote cache hits.
func (s *Server) executeJob(req pipeline.Request, tc spanCtx) (core.Rendered, string, error) {
	if key, ok := s.pl.CacheKeyFor(req); !ok || !s.pl.HasResult(key) {
		if wr, peer, ok := s.probePeerCaches(req, tc); ok {
			sum := wr.Rendered
			sum.CacheHit = true
			return sum, peer, nil
		}
		s.probePeerTables(req, tc)
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
	// as spans on this trace would put stale wall clocks on the timeline.
	if !res.CacheHit {
		stageTC := spanCtx{trace: tc.trace, parent: execID, rec: tc.rec}
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

// evictLocked drops the oldest finished jobs beyond MaxJobs.
func (s *Server) evictLocked() {
	for len(s.order) > s.cfg.MaxJobs {
		delete(s.jobs, s.order[0])
		s.journalTerminal(journal.OpEvicted, s.order[0])
		s.order = s.order[1:]
	}
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

// reserveInflight reserves n upload bytes against MaxQueuedTraceBytes
// and returns their release func, or nil when the backlog is full. The
// budget covers bodies still being buffered in handlers as well as
// queued jobs, so N concurrent uploads cannot transiently hold
// N×MaxTraceBytes.
func (s *Server) reserveInflight(n int64) func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queuedTraceBytes+s.inflightBytes+n > s.cfg.MaxQueuedTraceBytes {
		return nil
	}
	s.inflightBytes += n
	return func() {
		s.mu.Lock()
		s.inflightBytes -= n
		s.mu.Unlock()
	}
}

func (s *Server) backlogFull(w http.ResponseWriter) {
	httpError(w, http.StatusServiceUnavailable, clusterapi.CodeTraceBacklogFull,
		"trace backlog full (limit %d bytes)", s.cfg.MaxQueuedTraceBytes)
}

// admitUpload runs the declared-length admission checks shared by the
// trace-body endpoints: a Content-Length beyond the per-trace cap can
// never be accepted, so it answers 413 up front instead of reserving
// doomed budget that would 503 legitimate concurrent uploads while the
// body dribbles in toward MaxBytesReader's cutoff; known-length bodies
// reserve their in-flight bytes before buffering begins. Chunked bodies
// (no Content-Length) pass through and must be reserved by the caller
// once buffered. ok=false means the response has been written.
func (s *Server) admitUpload(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if r.ContentLength > s.cfg.MaxTraceBytes {
		httpError(w, http.StatusRequestEntityTooLarge, clusterapi.CodeBodyTooLarge,
			"trace body %d bytes exceeds limit %d", r.ContentLength, s.cfg.MaxTraceBytes)
		return nil, false
	}
	if r.ContentLength > 0 {
		if release = s.reserveInflight(r.ContentLength); release == nil {
			s.backlogFull(w)
			return nil, false
		}
	}
	return release, true
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
	// Corpus uploads buffer their whole body while it is parsed and
	// written, so they draw on the same in-flight byte budget as
	// /analyze uploads; chunked bodies reserve once their size is known.
	release, ok := s.admitUpload(w, r)
	if !ok {
		return
	}
	defer func() {
		if release != nil {
			release()
		}
	}()
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, clusterapi.CodeBodyTooLarge, "request body: %v", err)
		return
	}
	if release == nil {
		if release = s.reserveInflight(int64(buf.Len())); release == nil {
			s.backlogFull(w)
			return
		}
	}
	meta, created, err := s.corpus.Put(buf.Bytes(), r.URL.Query().Get("pin") == "true")
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

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// Cheap admission pre-checks before buffering the body, so overload
	// rejection doesn't pay the read-and-parse cost; the authoritative
	// checks re-run under the mutex at enqueue time.
	ct := r.Header.Get("Content-Type")
	jsonish := ct == "" || strings.HasPrefix(ct, "application/json")
	// Every submission gets a distributed trace ID — minted here, or
	// adopted from the client's X-Perfplay-Trace header so a caller (or
	// an upstream redirecting node) can stitch the job into its own
	// trace. The ID is echoed on every response, including rejections.
	traceID := r.Header.Get(telemetry.TraceHeader)
	if !telemetry.ValidTraceID(traceID) {
		traceID = telemetry.NewTraceID()
	}
	w.Header().Set(telemetry.TraceHeader, traceID)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		httpError(w, http.StatusServiceUnavailable, clusterapi.CodeShuttingDown, "server shutting down")
		return
	}
	if s.queue.Len() >= s.queue.Cap() {
		s.rejectQueueFull(w, traceID)
		return
	}

	// Trace bytes are budgeted from the moment they start buffering,
	// not just once queued (see reserveInflight). Known-length uploads
	// reserve before the body is read; chunked ones reserve as soon as
	// their size is known, right after buffering.
	var release func()
	reserve := func(n int64) bool {
		release = s.reserveInflight(n)
		return release != nil
	}
	defer func() {
		if release != nil {
			release()
		}
	}()
	backlogFull := func() { s.backlogFull(w) }
	// Declared-trace bodies go through the shared admission checks;
	// jsonish bodies might still be workload specs, so their (possible)
	// trace bytes are only reserved after sniffing, below.
	if !jsonish {
		var ok bool
		if release, ok = s.admitUpload(w, r); !ok {
			return
		}
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxTraceBytes)
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, clusterapi.CodeBodyTooLarge, "request body: %v", err)
		return
	}

	// A JSON-encoded trace arrives with the same content type as a
	// workload spec; traces carry an "events" array, specs never do.
	isTrace := !jsonish
	if jsonish {
		var probe struct {
			Events json.RawMessage `json:"events"`
		}
		if json.Unmarshal(buf.Bytes(), &probe) == nil && probe.Events != nil {
			isTrace = true
		}
	}

	var req pipeline.Request
	var uploadBytes int64
	if isTrace {
		if release == nil && !reserve(int64(buf.Len())) {
			backlogFull()
			return
		}
		tr, err := trace.Decode(buf.Bytes())
		if err != nil {
			httpError(w, http.StatusBadRequest, clusterapi.CodeInvalidTrace, "%v", err)
			return
		}
		if len(tr.Events) == 0 || tr.NumThreads == 0 {
			httpError(w, http.StatusBadRequest, clusterapi.CodeInvalidTrace,
				"empty trace (%d events, %d threads) — did you mean a JSON workload spec?",
				len(tr.Events), tr.NumThreads)
			return
		}
		uploadBytes = int64(buf.Len())
		// Analysis options ride as query parameters on upload requests
		// (the body is the trace itself). The body's content digest keys
		// the result cache, so re-uploading identical bytes — or
		// analyzing the same content stored in the corpus — is a hit.
		q := r.URL.Query()
		top, terr := queryInt(q, "top")
		schemes, serr := queryBool(q, "schemes")
		races, rerr := queryBool(q, "races")
		if err := cmp.Or(terr, serr, rerr); err != nil {
			httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "%v", err)
			return
		}
		req = pipeline.Request{
			Trace:       tr,
			TraceDigest: corpus.Digest(buf.Bytes()),
			TopK:        top,
			Schemes:     schemes,
			DetectRaces: races,
		}
	} else {
		var spec analyzeSpec
		if err := json.Unmarshal(buf.Bytes(), &spec); err != nil {
			httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "bad request body: %v", err)
			return
		}
		if spec.Trace != "" {
			// Analyze a stored trace by digest: no re-upload, and the
			// digest-keyed result cache is shared with direct uploads of
			// the same bytes. The blob is NOT read here — a TraceLoader
			// defers disk I/O and parsing to the worker, and only on a
			// cache miss, so repeats of an already-analyzed trace cost
			// neither memory while queued nor a redundant parse. That
			// also means digest jobs draw nothing from the upload byte
			// budget: at most Workers traces are in memory at once.
			if !s.requireCorpus(w) {
				return
			}
			// Touch, not Stat: referencing a trace by digest must count
			// as use for LRU purposes even when the job is later served
			// from the result cache without re-reading the blob —
			// otherwise hot traces would be the first evicted.
			meta, err := s.corpus.Touch(spec.Trace)
			if err != nil {
				corpusError(w, err)
				return
			}
			digest := meta.Digest
			req = pipeline.Request{
				TraceLoader: func() (*trace.Trace, error) {
					tr, _, err := s.corpus.Load(digest)
					return tr, err
				},
				TraceDigest: digest,
				TopK:        spec.Top,
				Schemes:     spec.Schemes,
				DetectRaces: spec.Races,
			}
		} else {
			if _, ok := workload.Get(spec.App); !ok {
				httpError(w, http.StatusBadRequest, clusterapi.CodeUnknownWorkload, "unknown workload %q", spec.App)
				return
			}
			input, err := workload.ParseInputSize(spec.Input)
			if err != nil {
				httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "%v", err)
				return
			}
			req = pipeline.Request{
				App: spec.App, Threads: spec.Threads, Input: input,
				Scale: spec.Scale, Seed: spec.Seed, TopK: spec.Top,
				Schemes: spec.Schemes, DetectRaces: spec.Races,
			}
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, clusterapi.CodeShuttingDown, "server shutting down")
		return
	}
	// The byte budget was enforced when the upload reserved its
	// in-flight bytes; enqueueing transfers the accounting from
	// inflightBytes (released by the deferred handler) to
	// queuedTraceBytes (released when a worker picks the job up).
	s.seq++
	j := &job{
		ID:          fmt.Sprintf("job-%d", s.seq),
		Status:      statusQueued,
		Submitted:   time.Now(),
		Seed:        req.Seed,
		TraceDigest: req.TraceDigest,
		TraceID:     traceID,
		req:         req,
		traceBytes:  uploadBytes,
		changed:     make(chan struct{}),
		spanID:      telemetry.NewSpanID(),
	}
	s.jobs[j.ID] = j
	// Push is non-blocking (the queue is bounded), so holding the mutex
	// across it is fine.
	enqueued := s.queue.Push(&scheduler.Job{ID: j.ID, Spec: specFor(req), Payload: j})
	if enqueued {
		s.queuedTraceBytes += uploadBytes
	} else {
		delete(s.jobs, j.ID)
	}
	s.mu.Unlock()
	if !enqueued {
		s.rejectQueueFull(w, traceID)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id": j.ID, "status": statusQueued, "trace_id": traceID,
	})
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
	s.mu.Lock()
	j, ok := s.jobs[id]
	var snapshot job
	var changed chan struct{}
	if ok {
		snapshot = *j
		changed = j.changed
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, clusterapi.CodeJobNotFound, "no such job")
		return
	}
	// Long-poll: park until the job changes state (queued→running or
	// →done/failed), the wait expires, or the client goes away — then
	// answer with whatever the job looks like now. Terminal jobs answer
	// immediately; "state change" includes starting, so a caller
	// tracking progress sees each transition with one request apiece.
	if wait > 0 && (snapshot.Status == statusQueued || snapshot.Status == statusRunning) {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-changed:
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
		s.mu.Lock()
		if j, ok := s.jobs[id]; ok {
			snapshot = *j
		}
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, &snapshot)
}

// jobListDefaultLimit / jobListMaxLimit bound GET /jobs responses: the
// retained-job map holds up to MaxJobs (1024 by default) records, and
// an unbounded listing would serialize all of them per poll.
const (
	jobListDefaultLimit = 100
	jobListMaxLimit     = 1000
)

// handleJobList (GET /jobs?state=&limit=) lists this node's retained
// jobs newest-first — the operator's "what is this node doing"
// endpoint, complementing the per-ID lookup. ?state= filters by job
// state; ?limit= bounds the page (default 100, capped at 1000). The
// response's total counts every match before the limit was applied, so
// a truncated page is detectable.
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
	s.mu.Lock()
	list := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if state == "" || j.Status == state {
			snapshot := *j
			list = append(list, &snapshot)
		}
	}
	s.mu.Unlock()
	// Newest submission first: the numeric submit sequence inside the ID
	// ("job-42"), not the lexical ID ("job-10" sorts before "job-9") and
	// not Submitted stamps (equal at clock granularity under load).
	sort.Slice(list, func(i, k int) bool {
		si, iok := jobSeq(list[i].ID)
		sk, kok := jobSeq(list[k].ID)
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		counts[j.Status]++
	}
	queuedBytes := s.queuedTraceBytes
	running := s.running
	stealer := s.stealer
	s.mu.Unlock()
	var corpusTraces int
	var corpusBytes int64
	if s.corpus != nil {
		corpusTraces = s.corpus.Len()
		corpusBytes = s.corpus.TotalBytes()
	}
	// The steal section gossips this node's own depth alongside its
	// last-known view of every peer's, so one healthz poll anywhere in
	// the cluster shows where the backlog lives.
	steal := map[string]any{
		"enabled":   stealer != nil,
		"stealable": s.queue.Stealable(),
		"claimed":   s.queue.ClaimedCount(),
	}
	if stealer != nil {
		steal["stats"] = stealer.Stats()
	}
	if peers := s.gossip.Snapshot(); len(peers) > 0 {
		steal["peer_queues"] = peers
	}
	// The cache section merges the pipeline's own hit accounting with
	// the cluster exchange counters: how often this node's caches
	// answered (locally and to peers) versus how often a peer's did.
	cache := map[string]any{
		"pipeline": s.pl.Stats(),
		"cluster":  s.cacheStats.snapshot(),
	}
	// The journal section shows the durability story: the log's size
	// and live backlog, plus what this boot's replay recovered.
	jnl := map[string]any{"enabled": s.journal != nil}
	if s.journal != nil {
		jnl["stats"] = s.journal.Stats()
		jnl["recovered"] = s.recovered
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":                 true,
		"jobs":               counts,
		"queue_depth":        s.cfg.QueueDepth,
		"queue_len":          s.queue.Len(),
		"queued_trace_bytes": queuedBytes,
		"running":            running,
		"cached":             s.pl.CacheLen(),
		"cached_tables":      s.pl.TableCacheLen(),
		"cache":              cache,
		"workers":            s.cfg.Workers,
		"corpus_enabled":     s.corpus != nil,
		"corpus_traces":      corpusTraces,
		"corpus_bytes":       corpusBytes,
		"peers":              len(s.cfg.Peers),
		"steal":              steal,
		"journal":            jnl,
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

// queryInt and queryBool read one optional query parameter: absent is
// the zero value, malformed an error naming the parameter.
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

func queryBool(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("bad %s %q: want true or false", name, v)
	}
	return b, nil
}
