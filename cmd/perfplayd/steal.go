package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/corpus"
	"perfplay/internal/pipeline"
	"perfplay/internal/scheduler"
	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// This file is the daemon half of the whole-job work-stealing protocol
// (the policy lives in internal/scheduler):
//
//	GET  /steal             victim advertises its stealable backlog
//	POST /jobs/claim        thief takes the newest stealable job, on a lease
//	POST /jobs/{id}/result  thief reports the finished summary back
//
// A stolen job's trace ships content-addressed: the claim carries only
// the corpus digest, and the thief fetches the blob from the victim
// (GET /traces/{digest}, hash-verified) only when its own corpus misses
// it.

// specFor derives the wire-stealable description of a request. Uploaded
// traces held only in this process's memory yield a zero (unstealable)
// spec; workload specs and corpus-backed digest jobs ship whole.
func specFor(req pipeline.Request) scheduler.Spec {
	switch {
	case req.App != "":
		return scheduler.Spec{
			App:     req.App,
			Threads: req.Threads,
			Input:   int(req.Input),
			Scale:   req.Scale,
			Seed:    req.Seed,
			TopK:    req.TopK,
			Schemes: req.Schemes,
			Races:   req.DetectRaces,
		}
	case req.TraceDigest != "" && req.TraceLoader != nil:
		// Only corpus-backed jobs are stealable by digest: the victim
		// must be able to serve the blob to the thief.
		return scheduler.Spec{
			TraceDigest: req.TraceDigest,
			TopK:        req.TopK,
			Schemes:     req.Schemes,
			Races:       req.DetectRaces,
		}
	default:
		return scheduler.Spec{}
	}
}

// errStolenTraceUnavailable marks failures to *obtain* a stolen job's
// trace — transport or storage trouble on the thief, not a property of
// the job. These must never settle the job as failed on the victim
// (which may well hold the trace and run it fine); the thief abandons
// the steal and the victim's lease requeues the job.
var errStolenTraceUnavailable = errors.New("stolen trace unavailable")

// requestFor is specFor's inverse: the pipeline request that reproduces
// the spec's job byte-for-byte, on a thief or on the node that journaled
// it. Digest specs resolve their trace from the local corpus, else a
// hash-verified fetch from the victim — performed eagerly, so an
// unfetchable blob aborts the steal before anything is reported. An
// empty victim (boot recovery) resolves purely locally: a trace the
// corpus cannot produce is an error, never a fetch.
func (s *Server) requestFor(victim string, spec scheduler.Spec, tc spanCtx) (pipeline.Request, error) {
	req := pipeline.Request{
		TopK:        spec.TopK,
		Schemes:     spec.Schemes,
		DetectRaces: spec.Races,
	}
	if spec.App != "" {
		if _, ok := workload.Get(spec.App); !ok {
			return pipeline.Request{}, fmt.Errorf("unknown workload %q", spec.App)
		}
		req.App = spec.App
		req.Threads = spec.Threads
		req.Input = workload.InputSize(spec.Input)
		req.Scale = spec.Scale
		req.Seed = spec.Seed
		return req, nil
	}
	digest := spec.TraceDigest
	req.TraceDigest = digest
	if s.corpus != nil {
		// Touch, not Stat: a stolen job referencing a locally stored
		// trace counts as use for LRU purposes, exactly like the
		// victim's own digest path.
		if _, err := s.corpus.Touch(digest); err == nil {
			req.TraceLoader = func() (*trace.Trace, error) {
				tr, _, err := s.corpus.Load(digest)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", errStolenTraceUnavailable, err)
				}
				return tr, nil
			}
			return req, nil
		} else if victim == "" || !errors.Is(err, corpus.ErrNotFound) {
			return pipeline.Request{}, fmt.Errorf("%w: %v", errStolenTraceUnavailable, err)
		}
	}
	if victim == "" {
		return pipeline.Request{}, fmt.Errorf("it references stored trace %s but the corpus is disabled", digest)
	}
	remote := &corpus.Remote{
		Base:    victim,
		Client:  s.peerClient,
		TraceID: tc.trace,
		SpanID:  tc.parent,
	}
	fetchStart := time.Now()
	data, err := remote.Fetch(digest)
	s.span(tc, "blob_fetch", fetchStart, time.Now(),
		map[string]string{"victim": victim, "digest": digest, "outcome": probeOutcome(err == nil)})
	if err != nil {
		return pipeline.Request{}, fmt.Errorf("%w: fetch from %s: %v", errStolenTraceUnavailable, victim, err)
	}
	if s.corpus != nil {
		// Best-effort local cache: the next steal of this trace is free.
		if _, _, err := s.corpus.Put(data, false); err != nil {
			s.logger.Warn("could not cache stolen trace locally",
				"digest", digest, "victim", victim, "err", err)
		}
	}
	req.TraceLoader = func() (*trace.Trace, error) { return trace.Decode(data) }
	return req, nil
}

// stealResult is the body of POST /jobs/{id}/result: the thief's
// identity, either an analysis error or the finished summary, exactly
// as a local run would have recorded it.
type stealResult struct {
	Thief   string        `json:"thief"`
	Error   string        `json:"error,omitempty"`
	Summary core.Rendered `json:"summary"`
	// Spans are the spans the thief recorded while executing the job —
	// shipped back so the victim's GET /jobs/{id}/trace shows the whole
	// cross-node timeline, not a hole where the stolen execution went.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// wire converts the daemon-typed result into the transport-level
// clusterapi.StealResult: the summary and spans travel as raw JSON so
// internal/scheduler never needs the daemon's report types.
func (r *stealResult) wire() (clusterapi.StealResult, error) {
	out := clusterapi.StealResult{Thief: r.Thief, Error: r.Error}
	var err error
	if out.Summary, err = json.Marshal(&r.Summary); err != nil {
		return clusterapi.StealResult{}, err
	}
	if len(r.Spans) > 0 {
		if out.Spans, err = json.Marshal(r.Spans); err != nil {
			return clusterapi.StealResult{}, err
		}
	}
	return out, nil
}

// executeStolen is the thief side of one steal: run the job on the
// local pipeline and report the outcome to the victim. Analysis errors
// are reported as job failures (they are deterministic — the job would
// fail on the victim too). Trace-availability and report-delivery
// failures instead return an error WITHOUT settling the job: the
// victim's lease requeues it there, where it can still succeed.
func (s *Server) executeStolen(victim string, sj scheduler.StolenJob) error {
	s.mu.Lock()
	s.running++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}()

	// Spans recorded during the stolen execution are collected for the
	// report body as well as stored locally — the victim owns the job's
	// timeline, but this node keeps its own copy for operators looking
	// at the thief. The steal_execute span's ID is minted up front so
	// children can parent onto it before it is itself recorded.
	var (
		spanMu  sync.Mutex
		shipped []telemetry.Span
	)
	collect := func(sp telemetry.Span) {
		spanMu.Lock()
		shipped = append(shipped, sp)
		spanMu.Unlock()
	}
	execSpanID := telemetry.NewSpanID()
	tc := spanCtx{trace: sj.Trace, parent: execSpanID, rec: collect}
	execStart := time.Now()

	result := stealResult{Thief: s.stealer.Self}
	req, err := s.requestFor(victim, sj.Spec, tc)
	if err == nil {
		// executeJob, not a bare pipeline run: a stolen digest job
		// deserves the same peer-cache probe as a local one — a third
		// node (or the victim itself) may hold the finished result,
		// and a steal must not re-pay a pipeline the cluster already ran.
		result.Summary, _, err = s.executeJob(req, tc)
	}
	s.recordSpan(tc, telemetry.Span{
		ID: execSpanID, Parent: sj.Span, Name: "steal_execute",
		Start: execStart, End: time.Now(),
		Attrs: map[string]string{"victim": victim, "job": sj.ID},
	})
	spanMu.Lock()
	result.Spans = shipped
	spanMu.Unlock()
	if err != nil {
		if errors.Is(err, errStolenTraceUnavailable) {
			return err // abandon: the lease recovers the job on the victim
		}
		result.Error = err.Error()
	}

	// The report rides the same transport the claim came over. A
	// lease-expired settle (the victim re-owns the job; our result is
	// stale and discarded) surfaces as an error, which is exactly the
	// abandon the stealer's failure accounting wants.
	wire, merr := result.wire()
	if merr != nil {
		return merr
	}
	return s.stealTransport().Settle(victim, sj.ID, wire)
}

// peerCallTimeout bounds each call that moves a whole job or a trace
// blob between nodes: steal probe, claim and settle, and the thief's
// trace fetch from the victim.
const peerCallTimeout = 120 * time.Second

// stealTransport is the transport the stealer probes and claims over
// and stolen jobs settle over.
func (s *Server) stealTransport() scheduler.Transport {
	return &scheduler.HTTPTransport{Client: s.peerClient}
}

// handleSteal (GET /steal) is the probe half of the steal protocol: a
// cheap, mutation-free advertisement of how much of this node's backlog
// a thief could take, plus the admission headroom (queue cap) and the
// node's hottest result-cache keys — the cache-population hints that
// let peers aim their cluster-cache probes at the likely holder.
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, scheduler.PeerStatus{
		QueueLen:  s.queue.Len(),
		QueueCap:  s.queue.Cap(),
		Stealable: s.queue.Stealable(),
		// The digests of the stealable backlog ride along so a thief
		// that already holds cached artifacts for one of them can aim
		// its steal here — that steal settles from cache.
		StealableDigests: s.queue.StealableDigests(s.cfg.CacheHintKeys),
		CacheKeys:        s.pl.RecentResultKeys(s.cfg.CacheHintKeys),
		Seen:             time.Now(),
	})
}

// handleClaim (POST /jobs/claim) hands the newest stealable queued job
// to a thief under a lease. 204 means nothing is stealable. The job
// becomes "running" from its client's point of view — work is underway,
// just elsewhere; if the thief vanishes, the reaper flips it back to
// "queued".
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Thief string `json:"thief"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "bad claim body: %v", err)
		return
	}
	if body.Thief == "" {
		body.Thief = r.RemoteAddr
	}
	qj, deadline, ok := s.queue.Claim(body.Thief, s.cfg.StealLease)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	j := qj.Payload.(*job)
	s.mu.Lock()
	j.Status = statusRunning
	j.StolenBy = body.Thief
	j.notifyLocked()
	traceID, parent := j.TraceID, j.spanID
	s.mu.Unlock()
	// The claim span marks the hand-off on the victim's timeline; its ID
	// ships to the thief as the parent for everything recorded remotely.
	now := time.Now()
	claimSpan := s.span(spanCtx{trace: traceID, parent: parent}, "steal_claim",
		now, now, map[string]string{"thief": body.Thief, "job": j.ID})
	writeJSON(w, http.StatusOK, scheduler.StolenJob{
		ID:      qj.ID,
		Spec:    qj.Spec,
		LeaseMS: time.Until(deadline).Milliseconds(),
		Trace:   traceID,
		Span:    claimSpan,
	})
}

// maxSummaryBytes bounds a peer-supplied summary: a thief's settle body
// (summary plus spans) or a cluster-cache export. Neither grows with the
// trace it derives from, so neither is read under the upload bound.
const maxSummaryBytes = 4 << 20

// handleJobResult (POST /jobs/{id}/result) settles a stolen job with
// the thief's outcome. A job that is no longer on lease — the lease
// expired and the reaper re-queued it — answers 409 and the late result
// is discarded; determinism makes that safe (the local re-run produces
// the identical summary).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var result stealResult
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSummaryBytes)).Decode(&result); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, clusterapi.CodeBodyTooLarge,
				"result body exceeds limit %d", maxSummaryBytes)
			return
		}
		httpError(w, http.StatusBadRequest, clusterapi.CodeBadRequest, "bad result body: %v", err)
		return
	}
	qj, ok := s.queue.Complete(id)
	if !ok {
		httpError(w, http.StatusConflict, clusterapi.CodeLeaseExpired, "job %s is not on lease (expired, settled, or never claimed)", id)
		return
	}
	j := qj.Payload.(*job)
	s.mu.Lock()
	defer s.mu.Unlock()
	if result.Thief != "" {
		j.StolenBy = result.Thief
	}
	var failure error
	if result.Error != "" {
		failure = errors.New(result.Error)
	}
	// Adopt the thief's spans onto the job's timeline, then close it
	// out exactly like a local run, plus a settle marker.
	tc := spanCtx{trace: j.TraceID, parent: j.spanID}
	for _, sp := range result.Spans {
		s.recordSpan(tc, sp)
	}
	s.finishLocked(j, result.Summary, failure)
	s.span(tc, "steal_settle", j.Finished, j.Finished,
		map[string]string{"thief": j.StolenBy, "status": j.Status})
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": j.Status})
}
