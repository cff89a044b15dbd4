// Package journal is perfplayd's crash-durable job journal: an
// append-only log of two records per job, admitted and one terminal
// record (settled or failed), that lets a restarted daemon reconstruct
// exactly which jobs it had admitted and not yet finished when the
// previous process died. The trace blobs themselves already survive in
// the content-addressed corpus; the journal is the missing piece that
// makes the *queue* survive too.
//
// The journal is one internal/wal log, <dir>/journal.wal, with one
// JSON-encoded Record per frame, and every Append is fsynced before it
// returns — a record the caller saw committed is durable. Once dead
// records outnumber live ones in a log of over wal.MinCompact records,
// the journal rewrites itself as one admitted record per live job, so a
// long-running daemon's journal is bounded by its live backlog, not its
// lifetime job count. The rewrite keeps the newest job's two records
// too, so a restarted daemon never hands out an ID it already used.
//
// Recovery semantics on Open:
//
//   - a clean log replays fully; Live() returns every job that was
//     admitted but never settled or failed, in admit order. A job out
//     on a steal lease at crash time is simply live: a lease never
//     survives a restart.
//   - a torn tail — the final record cut short or checksum-damaged by a
//     crash mid-write — is cut off and replay succeeds with everything
//     before it. Only the record being written at the instant of the
//     crash can be in that position, and by the fsync contract it was
//     never acknowledged.
//   - damage anywhere else is real corruption, not a torn write, and
//     Open fails closed with ErrCorrupt naming the file and offset
//     rather than silently dropping committed jobs. So does a record
//     whose op is none of the three.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"perfplay/internal/telemetry"
	"perfplay/internal/wal"
)

// Ops are the journaled job state transitions. Admitted records carry
// the job's spec and metadata; the terminal ops only reference the job
// by ID.
const (
	// OpAdmitted: the job entered the queue (or was re-enqueued at
	// recovery). Upserts the job into live state.
	OpAdmitted = "admitted"
	// OpSettled: the job finished successfully (locally or via a
	// thief's reported result). Retires it.
	OpSettled = "settled"
	// OpFailed: the job finished with an error, was abandoned at
	// shutdown, or could not be recovered at restart. Retires it.
	OpFailed = "failed"
)

// Record is one journaled state transition. Spec is opaque to the
// journal — the daemon stores its wire-stealable scheduler spec there
// and unmarshals it back at recovery — as is Meta (trace ID, submit
// time, and whatever else the owner wants to restore).
type Record struct {
	Op   string            `json:"op"`
	Job  string            `json:"job"`
	Spec json.RawMessage   `json:"spec,omitempty"`
	Meta map[string]string `json:"meta,omitempty"`
}

// LiveJob is one job reconstructed by replay: admitted but not yet
// settled or failed.
type LiveJob struct {
	Job  string
	Spec json.RawMessage
	Meta map[string]string
}

// Options tunes the journal. The zero value is production-ready.
type Options struct {
	// NoSync skips the per-append fsync — only for tests, where the
	// process outlives every assertion anyway.
	NoSync bool
	// Metrics, when set, registers the perfplay_journal_* families on
	// the given registry.
	Metrics *telemetry.Registry
}

// Stats is a point-in-time summary, behind the perfplay_journal_*
// gauges.
type Stats struct {
	Records     int
	LiveJobs    int
	DeadRatio   float64
	Bytes       int64
	Compactions int64
	// TruncatedTail reports that Open salvaged a torn final record —
	// evidence the previous process died mid-append.
	TruncatedTail bool
}

// ErrCorrupt marks a record whose checksum or framing is damaged
// somewhere fsync promised it couldn't be — replay fails closed rather
// than silently dropping committed jobs.
var ErrCorrupt = wal.ErrCorrupt

// fileName is the journal's one log file in its directory.
const fileName = "journal.wal"

// Journal is the append-only log. All methods are safe for concurrent
// use; Append serializes on an internal mutex (the fsync dominates).
type Journal struct {
	recordsByOp *telemetry.CounterVec
	bytesTotal  *telemetry.Counter
	compactions *telemetry.Counter
	errorsTotal *telemetry.Counter

	mu    sync.Mutex
	log   *wal.Log
	live  map[string]*LiveJob
	order []string // admit order; may hold IDs since removed
	// newest is the last job admitted while not live, and newestEnd its
	// terminal op once it has one: a rewrite keeps both records, so
	// Newest survives compaction.
	newest, newestEnd string
	compacted         int64
	closed            bool
}

// Open replays <dir>/journal.wal (creating dir and the log if needed)
// and returns the journal positioned to append. See the package comment
// for the torn-tail salvage and fail-closed corruption semantics. A dir
// holding journal-*.wal segments, the multi-file layout of earlier
// builds, is refused with an error naming the segment, and left as it
// is.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".wal") {
			return nil, fmt.Errorf("journal: %s is a segment of the multi-file journal layout, which this build does not read; let the build that wrote it finish its jobs, then remove it",
				filepath.Join(dir, name))
		}
	}
	j := &Journal{live: make(map[string]*LiveJob)}
	if j.log, err = wal.Open(filepath.Join(dir, fileName), j.apply); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.log.NoSync = opts.NoSync
	if reg := opts.Metrics; reg != nil {
		j.recordsByOp = reg.NewCounterVec("perfplay_journal_records_total",
			"Job-journal records appended, by transition op.", "op")
		j.bytesTotal = reg.NewCounter("perfplay_journal_appended_bytes_total",
			"Bytes appended to the job journal (frames included).")
		j.compactions = reg.NewCounter("perfplay_journal_compactions_total",
			"Job-journal compactions (the log rewritten as its live state).")
		j.errorsTotal = reg.NewCounter("perfplay_journal_errors_total",
			"Job-journal append or compaction failures (durability degraded).")
		reg.NewGaugeFunc("perfplay_journal_live_jobs",
			"Jobs the journal would recover after a crash right now.", func() float64 {
				return float64(j.Stats().LiveJobs)
			})
		reg.NewGaugeFunc("perfplay_journal_dead_ratio",
			"Fraction of journal records no longer contributing to live state.", func() float64 {
				return j.Stats().DeadRatio
			})
		reg.NewGaugeFunc("perfplay_journal_size_bytes",
			"Job-journal bytes on disk.", func() float64 {
				return float64(j.Stats().Bytes)
			})
	}
	return j, nil
}

// apply folds one record into live state: admitted upserts the job,
// settled or failed retires it, and any other op is refused.
func (j *Journal) apply(rec Record) error {
	switch rec.Op {
	case OpAdmitted:
		lj, ok := j.live[rec.Job]
		if !ok {
			lj = &LiveJob{Job: rec.Job}
			j.live[rec.Job] = lj
			j.order = append(j.order, rec.Job)
			j.newest, j.newestEnd = rec.Job, ""
		}
		// Upsert: a re-admit at recovery refreshes spec and meta.
		if len(rec.Spec) > 0 {
			lj.Spec = rec.Spec
		}
		if rec.Meta != nil {
			lj.Meta = rec.Meta
		}
	case OpSettled, OpFailed:
		if rec.Job == j.newest {
			j.newestEnd = rec.Op
		}
		delete(j.live, rec.Job)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// Live returns the replayed non-terminal jobs in admit order.
func (j *Journal) Live() []LiveJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.liveSnapshotLocked()
}

// Newest is the ID of the last job first admitted to the journal, live
// or retired ("" for an empty journal): a restarted daemon numbers new
// jobs past it.
func (j *Journal) Newest() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.newest
}

// Append commits one record: framed, written, fsynced, applied. The
// record is durable when Append returns nil.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if rec.Op != OpAdmitted && rec.Op != OpSettled && rec.Op != OpFailed {
		return fmt.Errorf("journal: unknown op %q", rec.Op)
	}
	size := j.log.Size()
	if err := j.log.Append(rec); err != nil {
		if j.errorsTotal != nil {
			j.errorsTotal.Inc()
		}
		return fmt.Errorf("journal: %w", err)
	}
	_ = j.apply(rec) // cannot fail: the op was checked above
	if j.recordsByOp != nil {
		j.recordsByOp.With(rec.Op).Inc()
		j.bytesTotal.Add(float64(j.log.Size() - size))
	}
	// Housekeeping after the durable write. A failure here degrades
	// space reclamation, never durability — the record is on disk.
	if err := j.maybeCompactLocked(); err != nil && j.errorsTotal != nil {
		j.errorsTotal.Inc()
	}
	return nil
}

// maybeCompactLocked rewrites the log as one admitted record per live
// job, in admit order, followed by the newest job's two records if it
// is retired, once the log is due.
func (j *Journal) maybeCompactLocked() error {
	kept := len(j.live)
	if j.newestEnd != "" {
		kept += 2
	}
	if !j.log.Due(kept) {
		return nil
	}
	live := j.liveSnapshotLocked()
	recs := make([]any, 0, kept)
	for _, lj := range live {
		recs = append(recs, Record{Op: OpAdmitted, Job: lj.Job, Spec: lj.Spec, Meta: lj.Meta})
	}
	if j.newestEnd != "" {
		recs = append(recs, Record{Op: OpAdmitted, Job: j.newest}, Record{Op: j.newestEnd, Job: j.newest})
	}
	if err := j.log.Rewrite(recs); err != nil {
		return err
	}
	j.compacted++
	if j.compactions != nil {
		j.compactions.Inc()
	}
	// Drop tombstoned IDs from the admit-order slice while we're here.
	j.order = j.order[:0]
	for _, lj := range live {
		j.order = append(j.order, lj.Job)
	}
	return nil
}

// liveSnapshotLocked lists the live jobs in admit order; the caller
// holds j.mu.
func (j *Journal) liveSnapshotLocked() []LiveJob {
	out := make([]LiveJob, 0, len(j.live))
	for _, id := range j.order {
		if lj, ok := j.live[id]; ok {
			out = append(out, *lj)
		}
	}
	return out
}

// Stats summarizes the journal.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Stats{
		Records:       j.log.Records(),
		LiveJobs:      len(j.live),
		Bytes:         j.log.Size(),
		Compactions:   j.compacted,
		TruncatedTail: j.log.Truncated(),
	}
	if st.Records > 0 {
		// The share of records a compaction would drop: all but one
		// admitted record per live job.
		st.DeadRatio = float64(st.Records-st.LiveJobs) / float64(st.Records)
	}
	return st
}

// Close ends the journal: appends after Close fail. Every appended
// record is already durable, and no file stays open between appends.
func (j *Journal) Close() error {
	j.mu.Lock()
	j.closed = true
	j.mu.Unlock()
	return nil
}
