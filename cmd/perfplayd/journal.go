package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/jobs"
	"perfplay/internal/journal"
	"perfplay/internal/telemetry"
)

// This file is the daemon half of crash durability (the log is
// internal/journal): the job node reports each job's admission and its
// one terminal transition under its lock, and Transition appends the
// record before the call returns. NewServer replays the log before any
// worker starts: every job admitted and not finished, queued or out on a
// steal lease, re-enters the queue in admit order, and a job whose trace
// the corpus no longer holds fails with a clear error. Determinism makes
// a re-run byte-identical to the lost run.

// Meta keys an admitted record carries beside the spec, so the restarted
// daemon can rebuild the client-visible job; the rest is in the spec.
const (
	jmetaTraceID   = "trace_id"
	jmetaSubmitted = "submitted" // RFC3339Nano
)

// Transition implements jobs.TransitionLog for the job node.
// Append errors are logged, not propagated: a full disk degrades
// durability, not admission.
func (s *Server) Transition(op string, j *jobs.Job) {
	if s.journal == nil {
		return
	}
	rec := journal.Record{Op: op, Job: j.ID}
	if op == journal.OpAdmitted {
		rec.Spec, _ = json.Marshal(j.Spec)
		rec.Meta = map[string]string{
			jmetaTraceID:   j.TraceID,
			jmetaSubmitted: j.Submitted.UTC().Format(time.RFC3339Nano),
		}
	}
	if err := s.journal.Append(rec); err != nil {
		s.logger.Error("journal append failed; durability degraded",
			"op", rec.Op, "job", rec.Job, "err", err)
	}
}

// openJournal opens (replaying) the journal and resurrects the
// previous process's backlog. Called from NewServer before Start, so
// recovered jobs are queued before any worker can pop.
func (s *Server) openJournal(cfg Config) error {
	jr, err := journal.Open(cfg.JournalDir, journal.Options{Metrics: s.metrics})
	if err != nil {
		return err
	}
	s.journal = jr
	s.node.Reserve(jr.Newest())
	live := jr.Live()
	if st := jr.Stats(); st.TruncatedTail {
		s.logger.Warn("journal had a torn final record (crash mid-append); tail truncated",
			"dir", cfg.JournalDir)
	}
	// Recovered jobs re-admit through the node, which journals them
	// again, so the journal's view stays identical to the node's.
	var queued []*jobs.Job
	lost := 0
	for _, lj := range live {
		var spec clusterapi.Spec
		if len(lj.Spec) > 0 {
			if err := json.Unmarshal(lj.Spec, &spec); err != nil {
				return fmt.Errorf("journal: job %s: bad spec: %w", lj.Job, err)
			}
		}
		j := recoveredJob(lj, spec)
		s.node.Restore(j)
		if _, err := s.requestFor("", spec, spanCtx{}); err != nil {
			s.lost(j, fmt.Errorf("job not recovered: %w", err))
			lost++
			continue
		}
		queued = append(queued, j)
	}
	requeued := len(queued)
	for _, j := range s.node.Recover(queued) {
		s.lost(j, errors.New(j.Error)) // already failed: only logged here
		requeued--
		lost++
	}
	recovered := s.metrics.NewCounterVec("perfplay_journal_recovered_jobs_total",
		"Jobs recovered from the journal at boot, by outcome (requeued, lost).",
		"outcome")
	for outcome, n := range map[string]int{"requeued": requeued, "lost": lost} {
		if n > 0 {
			recovered.With(outcome).Add(float64(n))
		}
	}
	if len(live) > 0 {
		s.logger.Info("journal recovery: previous backlog restored",
			"dir", cfg.JournalDir, "requeued", requeued, "lost", lost)
	}
	return nil
}

// recoveredJob rebuilds the client-visible job record from a journaled
// live entry. The job keeps its original ID — clients polling GET
// /jobs/{id} across the restart just see "queued" again — and its
// original trace ID, so the distributed timeline survives too.
func recoveredJob(lj journal.LiveJob, spec clusterapi.Spec) *jobs.Job {
	j := newJob(spec, lj.Meta[jmetaTraceID])
	j.ID = lj.Job
	if !telemetry.ValidTraceID(j.TraceID) {
		j.TraceID = telemetry.NewTraceID()
	}
	if ts, err := time.Parse(time.RFC3339Nano, lj.Meta[jmetaSubmitted]); err == nil {
		j.Submitted = ts
	} else {
		j.Submitted = time.Now()
	}
	return j
}

// lost fails an unrecoverable journaled job — visible to its client
// with a clear error, never silently dropped — and logs the loss.
func (s *Server) lost(j *jobs.Job, err error) {
	s.node.Finish(j.ID, core.Rendered{}, "", err)
	s.logger.Warn("journaled job not recoverable", "job", j.ID, "err", err)
}
