// Package journal is perfplayd's crash-durable job journal: an
// append-only log of two records per job, admitted and one terminal
// record (settled or failed), that lets a restarted daemon reconstruct
// exactly which jobs it had admitted and not yet finished when the
// previous process died. The trace blobs themselves already survive in
// the content-addressed corpus; the journal is the missing piece that
// makes the *queue* survive too.
//
// Records are framed on disk as
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// with one JSON-encoded Record per frame, and every Append is fsynced
// before it returns — a record the caller saw committed is durable.
// Frames live in numbered segment files (journal-00000001.wal, ...),
// appended to the newest. Once the journal holds minCompactRecords
// records and the dead-record ratio (records that no longer contribute
// to live state) reaches compactRatio, it compacts: live state is
// rewritten into the next segment and every older segment is deleted,
// so a long-running daemon's journal is bounded by its live backlog,
// not its lifetime job count. Replay still reads several segments: a
// crash between a compaction's rename and its deletes leaves two, and
// older binaries rotated segments by size.
//
// Recovery semantics on Open:
//
//   - a clean log replays fully; Live() returns every job that was
//     admitted but never settled or failed, in admit order. A job out
//     on a steal lease at crash time is simply live: a lease never
//     survives a restart.
//   - a torn tail — the final record of the final segment cut short or
//     checksum-damaged by a crash mid-write — is salvaged: the tail is
//     truncated away and replay succeeds with everything before it.
//     Only the record being written at the instant of the crash can be
//     in that position, and by the fsync contract it was never
//     acknowledged.
//   - a checksum mismatch anywhere else is real corruption, not a torn
//     write, and Open fails closed with ErrCorrupt naming the segment
//     and offset rather than silently dropping committed jobs. So does
//     a record whose op is none of the three.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"perfplay/internal/telemetry"
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

// Compaction thresholds: a journal compacts once it holds
// minCompactRecords records, so a small one doesn't churn, and dead
// records make up compactRatio of them.
const (
	compactRatio      = 0.5
	minCompactRecords = 1024
)

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
var ErrCorrupt = errors.New("journal: corrupt record")

// frame framing constants.
const (
	headerBytes = 8        // 4-byte length + 4-byte CRC32
	maxRecord   = 16 << 20 // sanity bound on one record's payload
)

// liveJob is the mutable replay state for one non-terminal job.
type liveJob struct {
	spec json.RawMessage
	meta map[string]string
}

// Journal is the append-only log. All methods are safe for concurrent
// use; Append serializes on an internal mutex (the fsync dominates).
type Journal struct {
	dir  string
	opts Options

	recordsByOp *telemetry.CounterVec
	bytesTotal  *telemetry.Counter
	compactions *telemetry.Counter
	errorsTotal *telemetry.Counter

	mu        sync.Mutex
	active    *os.File
	activeSeq int
	segments  []int // sorted segment sequence numbers, activeSeq last
	totalLen  int64 // bytes across all segments

	live      map[string]*liveJob
	order     []string // admit order; may hold IDs since removed
	records   int      // records across all segments
	compacted int64
	truncated bool
	closed    bool
}

// Open replays every segment in dir (creating it if needed) and
// returns the journal positioned to append. See the package comment
// for the torn-tail salvage and fail-closed corruption semantics.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:  dir,
		opts: opts,
		live: make(map[string]*liveJob),
	}
	if reg := opts.Metrics; reg != nil {
		j.recordsByOp = reg.NewCounterVec("perfplay_journal_records_total",
			"Job-journal records appended, by transition op.", "op")
		j.bytesTotal = reg.NewCounter("perfplay_journal_appended_bytes_total",
			"Bytes appended to the job journal (frames included).")
		j.compactions = reg.NewCounter("perfplay_journal_compactions_total",
			"Job-journal compactions (live state rewritten, old segments deleted).")
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
	if err := j.replay(); err != nil {
		return nil, err
	}
	return j, nil
}

func segmentName(seq int) string { return fmt.Sprintf("journal-%08d.wal", seq) }

// segmentSeq parses a segment filename; ok=false for foreign files.
func segmentSeq(name string) (int, bool) {
	var seq int
	if n, err := fmt.Sscanf(name, "journal-%d.wal", &seq); n != 1 || err != nil {
		return 0, false
	}
	if !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	return seq, true
}

// replay loads every segment and opens the last (or a fresh first one)
// for appending.
func (j *Journal) replay() error {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := segmentSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	for i, seq := range seqs {
		if err := j.replaySegment(seq, i == len(seqs)-1); err != nil {
			return err
		}
	}
	j.segments = seqs
	if len(seqs) == 0 {
		return j.openSegment(1)
	}
	// Re-open the last segment for appending, positioned at its
	// (possibly truncated) end.
	last := seqs[len(seqs)-1]
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.active = f
	j.activeSeq = last
	return nil
}

// replaySegment reads one segment, applying every record. last selects
// the torn-tail salvage semantics.
func (j *Journal) replaySegment(seq int, last bool) error {
	path := filepath.Join(j.dir, segmentName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	size := int64(len(data))
	off := int64(0)
	for off < size {
		// A frame cut short (header or payload) is a torn tail when it
		// runs to EOF of the final segment; anywhere else it's
		// corruption the fsync contract says cannot happen.
		salvage := func(reason string) error {
			if !last {
				return fmt.Errorf("%w: %s at %s offset %d (not the final segment)", ErrCorrupt, reason, segmentName(seq), off)
			}
			if err := os.Truncate(path, off); err != nil {
				return fmt.Errorf("journal: truncating torn tail of %s: %w", segmentName(seq), err)
			}
			size = off
			j.truncated = true
			return nil
		}
		if size-off < headerBytes {
			if err := salvage("truncated frame header"); err != nil {
				return err
			}
			break
		}
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length == 0 || length > maxRecord {
			if err := salvage(fmt.Sprintf("implausible record length %d", length)); err != nil {
				return err
			}
			break
		}
		if size-off-headerBytes < length {
			if err := salvage("truncated record payload"); err != nil {
				return err
			}
			break
		}
		payload := data[off+headerBytes : off+headerBytes+length]
		if crc32.ChecksumIEEE(payload) != sum {
			// A bad checksum on the very last frame of the final
			// segment is a torn write of the payload; anywhere earlier
			// it is silent corruption of an acknowledged record.
			if last && off+headerBytes+length == size {
				if err := salvage("checksum mismatch on torn tail"); err != nil {
					return err
				}
				break
			}
			return fmt.Errorf("%w: checksum mismatch at %s offset %d", ErrCorrupt, segmentName(seq), off)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("%w: undecodable record at %s offset %d: %v", ErrCorrupt, segmentName(seq), off, err)
		}
		if err := j.apply(rec); err != nil {
			return fmt.Errorf("%w: %v at %s offset %d", ErrCorrupt, err, segmentName(seq), off)
		}
		j.records++
		off += headerBytes + length
	}
	j.totalLen += size
	return nil
}

// apply folds one record into live state: admitted upserts the job,
// settled or failed retires it, and any other op is refused.
func (j *Journal) apply(rec Record) error {
	switch rec.Op {
	case OpAdmitted:
		lj, ok := j.live[rec.Job]
		if !ok {
			lj = &liveJob{}
			j.live[rec.Job] = lj
			j.order = append(j.order, rec.Job)
		}
		// Upsert: a re-admit at recovery refreshes spec and meta.
		if len(rec.Spec) > 0 {
			lj.spec = rec.Spec
		}
		if rec.Meta != nil {
			lj.meta = rec.Meta
		}
	case OpSettled, OpFailed:
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
	if err := j.appendLocked(rec); err != nil {
		if j.errorsTotal != nil {
			j.errorsTotal.Inc()
		}
		return err
	}
	if j.recordsByOp != nil {
		j.recordsByOp.With(rec.Op).Inc()
	}
	// Housekeeping after the durable write: compact when mostly dead.
	// A failure here degrades space reclamation, never durability — the
	// record is on disk.
	if err := j.maybeCompactLocked(); err != nil && j.errorsTotal != nil {
		j.errorsTotal.Inc()
	}
	return nil
}

func frame(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	if len(payload) > maxRecord {
		return nil, fmt.Errorf("journal: record %d bytes exceeds %d", len(payload), maxRecord)
	}
	buf := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[headerBytes:], payload)
	return buf, nil
}

func (j *Journal) appendLocked(rec Record) error {
	buf, err := frame(rec)
	if err != nil {
		return err
	}
	if _, err := j.active.Write(buf); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if !j.opts.NoSync {
		if err := j.active.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	j.totalLen += int64(len(buf))
	j.records++
	_ = j.apply(rec) // cannot fail: Append checked the op
	if j.bytesTotal != nil {
		j.bytesTotal.Add(float64(len(buf)))
	}
	return nil
}

// openSegment closes the active segment (if any) and starts a fresh
// one with the given sequence number.
func (j *Journal) openSegment(seq int) error {
	if j.active != nil {
		j.active.Close()
	}
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(seq)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.active = f
	j.activeSeq = seq
	j.segments = append(j.segments, seq)
	j.syncDir()
	return nil
}

// syncDir best-effort fsyncs the journal directory so segment
// creations and renames are themselves durable.
func (j *Journal) syncDir() {
	if d, err := os.Open(j.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// maybeCompactLocked rewrites live state into a fresh segment and
// deletes every older one, once the journal is large enough and mostly
// dead.
func (j *Journal) maybeCompactLocked() error {
	if j.records < minCompactRecords {
		return nil
	}
	if j.deadRatioLocked() < compactRatio {
		return nil
	}
	seq := j.activeSeq + 1
	path := filepath.Join(j.dir, segmentName(seq))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	var written int64
	var nrecs int
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	for _, lj := range j.liveSnapshotLocked() {
		buf, err := frame(Record{Op: OpAdmitted, Job: lj.Job, Spec: lj.Spec, Meta: lj.Meta})
		if err != nil {
			return fail(err)
		}
		if _, err := f.Write(buf); err != nil {
			return fail(err)
		}
		written += int64(len(buf))
		nrecs++
	}
	if !j.opts.NoSync {
		if err := f.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fail(err)
	}
	j.syncDir()
	// The compacted segment is durable under its final name; everything
	// older is now redundant. From here on, failures only leak files.
	old := j.segments
	if j.active != nil {
		j.active.Close()
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: reopen: %w", err)
	}
	j.active = af
	j.activeSeq = seq
	j.totalLen = written
	j.segments = []int{seq}
	j.records = nrecs
	j.compacted++
	if j.compactions != nil {
		j.compactions.Inc()
	}
	for _, s := range old {
		_ = os.Remove(filepath.Join(j.dir, segmentName(s)))
	}
	// Drop tombstoned IDs from the admit-order slice while we're here.
	keep := j.order[:0]
	for _, id := range j.order {
		if _, ok := j.live[id]; ok {
			keep = append(keep, id)
		}
	}
	j.order = keep
	j.syncDir()
	return nil
}

// liveSnapshotLocked lists the live jobs in admit order; the caller
// holds j.mu.
func (j *Journal) liveSnapshotLocked() []LiveJob {
	out := make([]LiveJob, 0, len(j.live))
	for _, id := range j.order {
		lj, ok := j.live[id]
		if !ok {
			continue
		}
		out = append(out, LiveJob{Job: id, Spec: lj.spec, Meta: lj.meta})
	}
	return out
}

// Stats summarizes the journal.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Records:       j.records,
		LiveJobs:      len(j.live),
		DeadRatio:     j.deadRatioLocked(),
		Bytes:         j.totalLen,
		Compactions:   j.compacted,
		TruncatedTail: j.truncated,
	}
}

// deadRatioLocked is the share of records a compaction would drop: all
// but one admitted record per live job.
func (j *Journal) deadRatioLocked() float64 {
	if j.records == 0 {
		return 0
	}
	return float64(j.records-len(j.live)) / float64(j.records)
}

// Close syncs and closes the active segment. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.active == nil {
		return nil
	}
	var err error
	if !j.opts.NoSync {
		err = j.active.Sync()
	}
	if cerr := j.active.Close(); err == nil {
		err = cerr
	}
	j.active = nil
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
