package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"perfplay/internal/core"
	"perfplay/internal/journal"
	"perfplay/internal/scheduler"
	"perfplay/internal/telemetry"
)

// This file is the daemon half of crash durability (the log itself
// lives in internal/journal): every queue transition is appended to the
// journal synchronously — the scheduler.Queue calls Transition under
// its own lock, so record order always matches queue order — and a
// restarted daemon replays the journal in NewServer, before any worker
// starts, to resurrect the previous process's backlog:
//
//   - jobs that were queued re-enter the queue in their original admit
//     order, so the recovered backlog runs in the order clients
//     submitted it;
//   - jobs that were out on a steal lease are requeued at the FRONT,
//     exactly the expired-lease semantics — the thief is gone (or will
//     be told 409 when it reports against the restarted node);
//   - upload-only jobs (trace lived solely in the dead process's
//     memory) are unrecoverable and surface as failed with a clear
//     error instead of vanishing.
//
// Determinism makes recovery safe: a re-run job produces the
// byte-identical report the lost run would have.

// Meta keys an admitted record carries so the restarted daemon can
// rebuild the client-visible job, not just the pipeline request.
const (
	jmetaTraceID   = "trace_id"
	jmetaSubmitted = "submitted" // RFC3339Nano
	jmetaSeed      = "seed"
	jmetaDigest    = "trace_digest"
)

// recoveredStats counts one boot's journal recovery, for /healthz.
type recoveredStats struct {
	// Requeued jobs were queued at crash time and re-entered the queue.
	Requeued int `json:"requeued"`
	// Released jobs were out on a steal lease and were requeued at the
	// front, like any expired lease.
	Released int `json:"released"`
	// Lost jobs could not be recovered (memory-only uploads, traces
	// since evicted from the corpus); they surface as failed.
	Lost int `json:"lost"`
}

// Transition implements scheduler.TransitionLog: the queue reports
// every state change and the journal makes it durable before the queue
// operation returns. Append errors are logged, not propagated — a full
// disk must degrade durability, not take down job admission.
func (s *Server) Transition(op string, qj *scheduler.Job, thief string) {
	if s.journal == nil {
		return
	}
	rec := journal.Record{Op: op, Job: qj.ID, Thief: thief}
	if op == scheduler.TransitionAdmitted {
		rec.Spec, _ = json.Marshal(qj.Spec)
		if j, ok := qj.Payload.(*job); ok {
			rec.Meta = map[string]string{
				jmetaTraceID:   j.TraceID,
				jmetaSubmitted: j.Submitted.UTC().Format(time.RFC3339Nano),
			}
			if j.Seed != 0 {
				rec.Meta[jmetaSeed] = strconv.FormatInt(j.Seed, 10)
			}
			if j.TraceDigest != "" {
				rec.Meta[jmetaDigest] = j.TraceDigest
			}
		}
	}
	s.appendJournal(rec)
}

// journalTerminal records a job's terminal transition reached outside
// the queue (local completion, failure, eviction) — the queue only sees
// admission, claims and requeues; the owner sees the end.
func (s *Server) journalTerminal(op, id string) {
	if s.journal == nil {
		return
	}
	s.appendJournal(journal.Record{Op: op, Job: id})
}

func (s *Server) appendJournal(rec journal.Record) {
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
	s.jrecovered = s.metrics.NewCounterVec("perfplay_journal_recovered_jobs_total",
		"Jobs recovered from the journal at boot, by outcome (requeued, released, lost).",
		"outcome")
	// The queue journals through the server from here on; the replayed
	// live jobs below re-admit themselves through the same path, which
	// keeps the journal's view identical to the queue's.
	s.queue.Journal = s

	live := jr.Live()
	if st := jr.Stats(); st.TruncatedTail {
		s.logger.Warn("journal had a torn final record (crash mid-append); tail truncated",
			"dir", cfg.JournalDir)
	}
	var claimed []*scheduler.Job
	for _, lj := range live {
		var spec scheduler.Spec
		if len(lj.Spec) > 0 {
			if err := json.Unmarshal(lj.Spec, &spec); err != nil {
				return fmt.Errorf("journal: job %s: bad spec: %w", lj.Job, err)
			}
		}
		j := s.recoveredJob(lj)
		s.jobs[j.ID] = j
		if n, ok := jobSeq(j.ID); ok && n > s.seq {
			s.seq = n
		}
		// An empty (unstealable) spec means the trace lived only in the
		// dead process's memory — unrecoverable by construction.
		if !spec.Stealable() {
			s.failRecoveredLocked(j, fmt.Errorf("job lost in restart: its uploaded trace existed only in the previous process's memory (store traces via POST /traces to survive restarts)"))
			continue
		}
		req, err := s.requestFor("", spec, spanCtx{})
		if err != nil {
			s.failRecoveredLocked(j, fmt.Errorf("job not recovered: %w", err))
			continue
		}
		j.req = req
		qj := &scheduler.Job{ID: j.ID, Spec: spec, Payload: j}
		if lj.Claimed {
			// Out on a steal lease when the node died: the PR 4 expired-
			// lease semantics apply verbatim — requeue at the front,
			// after the queued backlog is restored below.
			claimed = append(claimed, qj)
			continue
		}
		if !s.queue.Push(qj) {
			s.failRecoveredLocked(j, fmt.Errorf("job not recovered: queue full after restart (depth %d)", s.queue.Cap()))
			continue
		}
		s.recovered.Requeued++
		s.jrecovered.With("requeued").Inc()
	}
	if len(claimed) > 0 {
		if dropped := s.queue.Requeue(claimed); len(dropped) > 0 {
			// Unreachable in practice — the queue cannot be closed this
			// early — but never silently lose a job.
			for _, qj := range dropped {
				s.failRecoveredLocked(qj.Payload.(*job), fmt.Errorf("job not recovered: queue closed during recovery"))
			}
		} else {
			s.recovered.Released = len(claimed)
			s.jrecovered.With("released").Add(float64(len(claimed)))
		}
	}
	if len(live) > 0 {
		s.logger.Info("journal recovery: previous backlog restored",
			"dir", cfg.JournalDir, "requeued", s.recovered.Requeued,
			"released", s.recovered.Released, "lost", s.recovered.Lost)
	}
	return nil
}

// recoveredJob rebuilds the client-visible job record from a journaled
// live entry. The job keeps its original ID — clients polling GET
// /jobs/{id} across the restart just see "queued" again — and its
// original trace ID, so the distributed timeline survives too.
func (s *Server) recoveredJob(lj journal.LiveJob) *job {
	j := &job{
		ID:      lj.Job,
		Status:  statusQueued,
		changed: make(chan struct{}),
		spanID:  telemetry.NewSpanID(),
	}
	j.TraceID = lj.Meta[jmetaTraceID]
	if !telemetry.ValidTraceID(j.TraceID) {
		j.TraceID = telemetry.NewTraceID()
	}
	if ts, err := time.Parse(time.RFC3339Nano, lj.Meta[jmetaSubmitted]); err == nil {
		j.Submitted = ts
	} else {
		j.Submitted = time.Now()
	}
	if seed, err := strconv.ParseInt(lj.Meta[jmetaSeed], 10, 64); err == nil {
		j.Seed = seed
	}
	j.TraceDigest = lj.Meta[jmetaDigest]
	return j
}

// failRecoveredLocked marks an unrecoverable journaled job failed —
// visible to its client with a clear error, never silently dropped —
// and records the loss. Called from NewServer, before any concurrency;
// "Locked" in the sense that s.mu protection is not yet needed.
func (s *Server) failRecoveredLocked(j *job, err error) {
	s.journalTerminal(journal.OpFailed, j.ID)
	s.finishLocked(j, core.Rendered{}, err)
	s.recovered.Lost++
	s.jrecovered.With("lost").Inc()
	s.logger.Warn("journaled job not recoverable", "job", j.ID, "err", err)
}

// jobSeq parses the numeric suffix of a "job-N" ID so recovery can
// advance the ID sequence past every recovered job — a fresh submit
// must never collide with a resurrected ID.
func jobSeq(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
