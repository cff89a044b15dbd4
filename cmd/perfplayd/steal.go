package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/corpus"
	"perfplay/internal/jobs"
	"perfplay/internal/peerclient"
	"perfplay/internal/pipeline"
	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// This file is the daemon half of whole-job work stealing (the policy
// and the lease are internal/jobs'):
//
//	GET  /steal             victim advertises its stealable backlog
//	POST /jobs/claim        thief takes the newest stealable job, on a lease
//	POST /jobs/{id}/result  thief reports the finished summary back
//
// A claim carries only the trace's digest; the thief fetches the blob
// (GET /traces/{digest}, hash-verified) when its own corpus misses it.

// errStolenTraceUnavailable marks a thief's failure to obtain a stolen
// job's trace — its trouble, not the job's. The thief abandons the steal
// and the victim's lease requeues the job, which may run fine there.
var errStolenTraceUnavailable = errors.New("stolen trace unavailable")

// unavailable marks err so on a thief (victim set); other jobs own it.
func unavailable(victim string, err error) error {
	if victim == "" {
		return err
	}
	return fmt.Errorf("%w: %v", errStolenTraceUnavailable, err)
}

// requestOf is the one place a job's spec becomes its pipeline request,
// for a local, stolen or recovered job alike; victim is the node a
// stolen job came from. An app wins over a digest. A digest's trace is
// loaded from the local corpus only when the pipeline needs its events,
// so a result-cache hit reads no blob.
func (s *Server) requestOf(spec clusterapi.Spec, victim string) pipeline.Request {
	req := pipeline.Request{TopK: spec.TopK, Schemes: spec.Schemes, DetectRaces: spec.Races}
	if spec.App != "" {
		req.App, req.Threads, req.Input = spec.App, spec.Threads, workload.InputSize(spec.Input)
		req.Scale, req.Seed = spec.Scale, spec.Seed
	} else if digest := spec.TraceDigest; digest != "" {
		req.TraceDigest = digest
		req.TraceLoader = func() (*trace.Trace, error) {
			tr, _, err := s.corpus.Load(digest)
			if err != nil {
				return nil, unavailable(victim, err)
			}
			return tr, nil
		}
	}
	return req
}

// maxScale bounds a workload job's scale. A recording's length grows
// with it (mysql records about 13.7k events per unit at 2 threads), and
// nothing else bounds the work a spec asks for; every golden, -case and
// experiments table runs at 1 or below.
const maxScale = 16

// checkWorkloadSpec is the one check a workload job's spec passes before
// anything is recorded, whether it arrived by POST /analyze, a steal or
// the journal: a registered workload, a thread count in [0,
// trace.MaxThreads] (0 = the default), one of the input classes
// workload.ParseInputSize yields — an input no admitted spec carries
// would run at the default class under a cache key of its own — and a
// scale in [0, maxScale] (0 = the default). The code is the one POST
// /analyze answers with.
func checkWorkloadSpec(app string, threads, input int, scale float64) (clusterapi.ErrorCode, error) {
	if _, ok := workload.Get(app); !ok {
		return clusterapi.CodeUnknownWorkload, fmt.Errorf("unknown workload %q", app)
	}
	if threads < 0 || threads > trace.MaxThreads {
		return clusterapi.CodeBadRequest, fmt.Errorf("threads %d outside [0, %d] (0 = the default)", threads, trace.MaxThreads)
	}
	if !(scale >= 0 && scale <= maxScale) {
		return clusterapi.CodeBadRequest, fmt.Errorf("scale %g outside [0, %d] (0 = the default)", scale, maxScale)
	}
	switch workload.InputSize(input) {
	case workload.SimSmall, workload.SimMedium, workload.SimLarge:
	default:
		return clusterapi.CodeBadRequest, fmt.Errorf("input %d is not an input class: want %d (%v), %d (%v) or %d (%v)", input,
			workload.SimSmall, workload.SimSmall, workload.SimMedium, workload.SimMedium, workload.SimLarge, workload.SimLarge)
	}
	return "", nil
}

// requestFor checks a spec that arrived from a peer or the journal, as
// POST /analyze checks a body, then builds its request with requestOf.
// A digest resolves from the local corpus; a thief that misses it
// fetches the blob from the victim (hash-verified) and stores it there
// first, so a trace enters a node only through its corpus and the next
// steal of it is free. An unfetchable or unstorable blob aborts the
// steal before anything is reported. With no victim (recovery) a trace
// the corpus cannot produce is the job's own error, never a fetch.
func (s *Server) requestFor(victim string, spec clusterapi.Spec, tc spanCtx) (pipeline.Request, error) {
	digest := spec.TraceDigest
	var err error
	switch {
	case spec.App != "":
		if _, err := checkWorkloadSpec(spec.App, spec.Threads, spec.Input, spec.Scale); err != nil {
			return pipeline.Request{}, err
		}
	case s.corpus == nil:
		err = fmt.Errorf("it references stored trace %s but the corpus is disabled", digest)
	default:
		// Touch, not Stat: a reference counts as use for the LRU.
		_, err = s.corpus.Touch(digest)
		if errors.Is(err, corpus.ErrNotFound) && victim != "" {
			// A blob this node's own corpus could not hold is not worth buffering.
			fetchStart := time.Now()
			var data []byte
			data, err = s.peerClient.FetchTrace(victim, digest, s.cfg.CorpusMaxBytes)
			s.span(tc, "blob_fetch", fetchStart, time.Now(),
				map[string]string{"victim": victim, "digest": digest, "outcome": probeOutcome(err == nil)})
			if err != nil {
				err = fmt.Errorf("fetch from %s: %v", victim, err)
			} else {
				_, _, err = s.corpus.Put(data, false)
			}
		}
	}
	if err != nil {
		return pipeline.Request{}, unavailable(victim, err)
	}
	return s.requestOf(spec, victim), nil
}

// stealResult is the body of POST /jobs/{id}/result as the victim reads
// it (clusterapi.StealResult carries Summary and Spans as raw JSON): the
// thief, an analysis error or the finished summary, and the spans the
// thief recorded, so the victim's timeline has no hole.
type stealResult struct {
	Thief   string           `json:"thief"`
	Error   string           `json:"error,omitempty"`
	Summary core.Rendered    `json:"summary"`
	Spans   []telemetry.Span `json:"spans,omitempty"`
}

// executeStolen is the thief side of one steal: run the job on the
// local pipeline and report the outcome to the victim. Analysis errors
// are reported as job failures (they are deterministic — the job would
// fail on the victim too). Trace-availability and report-delivery
// failures instead return an error WITHOUT settling the job: the
// victim's lease requeues it there, where it can still succeed.
func (s *Server) executeStolen(victim string, sj clusterapi.StolenJob) error {
	defer s.node.Occupy(sj.ID)()

	// Spans recorded here, all on this goroutine, ship with the report;
	// steal_execute's ID is minted first so children can parent onto it.
	var shipped []telemetry.Span
	execSpanID := telemetry.NewSpanID()
	tc := spanCtx{parent: execSpanID, sink: func(sp telemetry.Span) { shipped = append(shipped, sp) }}
	execStart := time.Now()

	var sum core.Rendered
	req, err := s.requestFor(victim, sj.Spec, tc)
	if err == nil {
		// execute, so a stolen job probes peers' caches like a local one.
		sum, _, err = s.execute(req, tc)
	}
	s.recordSpan(tc, telemetry.Span{
		ID: execSpanID, Parent: sj.Span, Name: "steal_execute",
		Start: execStart, End: time.Now(),
		Attrs: map[string]string{"victim": victim, "job": sj.ID},
	})
	if errors.Is(err, errStolenTraceUnavailable) {
		return err // abandon: the lease recovers the job on the victim
	}
	res := clusterapi.StealResult{Thief: s.stealer.Self}
	if err != nil {
		res.Error = err.Error()
	}
	var merr error
	if res.Summary, merr = json.Marshal(&sum); merr != nil {
		return merr
	}
	if len(shipped) > 0 {
		res.Spans, _ = json.Marshal(shipped)
	}
	// A lease-expired settle (our result is stale) is an error: the
	// abandon the stealer's failure accounting wants.
	return s.peerClient.Settle(victim, sj.ID, res)
}

// peerCallTimeout bounds each call that moves a whole job or a trace
// blob between nodes: steal probe, claim and settle, and the thief's
// trace fetch from the victim.
const peerCallTimeout = 120 * time.Second

// handleSteal (GET /steal) is the probe half of the steal protocol: a
// cheap, mutation-free advertisement of this node's stealable backlog
// (with its digests, so a thief holding their artifacts can aim here),
// its admission headroom and its hottest result-cache keys — the hints
// that let peers aim their cache probes.
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.node.Status(s.pl.RecentResultKeys(s.cfg.HintKeys)))
}

// handleClaim (POST /jobs/claim) leases the newest stealable job to a
// thief; 204 means nothing is stealable. Its client sees it running.
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
	j, deadline, ok := s.node.Claim(body.Thief)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// The claim span marks the hand-off on the victim's timeline; its ID
	// ships to the thief as the parent for everything recorded remotely.
	now := time.Now()
	claimSpan := s.span(spanCtx{parent: stateOf(&j).spanID, sink: s.timelineOf(j.ID)}, "steal_claim",
		now, now, map[string]string{"thief": body.Thief, "job": j.ID})
	writeJSON(w, http.StatusOK, clusterapi.StolenJob{
		ID:      j.ID,
		Spec:    j.Spec,
		LeaseMS: time.Until(deadline).Milliseconds(),
		Span:    claimSpan,
	})
}

// maxSummaryBytes bounds a thief's settle body (summary plus spans) as
// peerclient bounds a cache export: neither grows with its trace, so
// neither is read under the upload bound.
const maxSummaryBytes = peerclient.MaxSummaryBytes

// handleJobResult (POST /jobs/{id}/result) settles a stolen job with
// the thief's outcome. A job no longer on lease answers 409 and the late
// result is discarded: the requeued run produces the identical summary.
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
	j, err := s.node.Settle(id, result.Thief, result.Summary, result.Error)
	if err != nil {
		httpError(w, http.StatusConflict, clusterapi.CodeLeaseExpired, "job %s is not on lease (expired, settled, or never claimed)", id)
		return
	}
	// Adopt the thief's spans onto the job's timeline, plus a settle
	// marker.
	s.node.With(id, func(j *jobs.Job) {
		st := stateOf(j)
		for _, sp := range result.Spans {
			st.add(sp)
		}
		s.span(spanCtx{parent: st.spanID, sink: st.add}, "steal_settle", j.Finished, j.Finished,
			map[string]string{"thief": j.StolenBy, "status": j.Status})
	})
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": j.Status})
}
