// Package corpus is the content-addressed trace store shared by the
// perfplay CLI and the perfplayd daemon. Every stored trace is
// identified by the SHA-256 digest of its serialized bytes
// ("sha256:<hex>"), so uploading the same recording twice stores one
// blob, jobs can reference prior recordings by digest instead of
// re-uploading, and the pipeline's result cache can key on trace
// content rather than pointer identity.
//
// On-disk layout (one directory per store):
//
//	<dir>/index.wal      an internal/wal log of put and delete records
//	<dir>/blobs/<hex>    the raw trace bytes (binary or JSON encoding)
//
// Blobs are written atomically (wal.WriteFile: temp file, fsync, rename
// in the same directory), so a crashed writer never leaves a partial
// blob under a valid name. Put, Pin and Delete each append their records
// to index.wal in one fsync'd write instead of rewriting the index, so a
// mutation's index write does not grow with the corpus; once dead
// records outnumber live ones the log is rewritten as one put per
// stored trace. Recency (LastUsed) moves in memory and reaches disk with
// the records of the trace it belongs to and at each rewrite. A
// configurable byte budget bounds the store; exceeding it evicts
// least-recently-used unpinned traces.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
	"perfplay/internal/wal"
)

// DigestPrefix is the algorithm tag every corpus digest carries.
const DigestPrefix = "sha256:"

// ErrNotFound reports a digest with no stored trace.
var ErrNotFound = errors.New("corpus: trace not found")

// ErrBudget reports a Put that cannot fit: the blob alone exceeds the
// byte budget, or everything evictable is pinned.
var ErrBudget = errors.New("corpus: byte budget exhausted")

// ErrInvalid marks caller mistakes — malformed digests, unparsable or
// empty traces — as opposed to internal store failures, so front ends
// can map them to 4xx rather than 5xx.
var ErrInvalid = errors.New("corpus: invalid request")

// Digest computes the content address of raw trace bytes.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return DigestPrefix + hex.EncodeToString(sum[:])
}

// parseDigest validates a digest string and returns its hex part (the
// blob file name).
func parseDigest(d string) (string, error) {
	hexPart, ok := strings.CutPrefix(d, DigestPrefix)
	if !ok || len(hexPart) != sha256.Size*2 {
		return "", fmt.Errorf("%w: malformed digest %q (want %s<64 hex chars>)", ErrInvalid, d, DigestPrefix)
	}
	if _, err := hex.DecodeString(hexPart); err != nil {
		return "", fmt.Errorf("%w: malformed digest %q: %v", ErrInvalid, d, err)
	}
	return hexPart, nil
}

// CheckDigest reports a malformed digest as ErrInvalid.
func CheckDigest(d string) error {
	_, err := parseDigest(d)
	return err
}

// Meta describes one stored trace.
type Meta struct {
	Digest   string    `json:"digest"`
	Size     int64     `json:"size"`
	Format   string    `json:"format"` // trace.FormatBinary, trace.FormatColumnar or trace.FormatJSON
	App      string    `json:"app,omitempty"`
	Events   int       `json:"events"`
	Threads  int       `json:"threads"`
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
	// Pinned traces are never LRU-evicted (explicit Delete still works).
	Pinned bool `json:"pinned,omitempty"`
}

// Options configures a Store.
type Options struct {
	// MaxBytes caps the sum of stored blob sizes; exceeding it evicts
	// least-recently-used unpinned traces. <= 0 means unlimited.
	MaxBytes int64

	// Metrics, when set, exports the store's occupancy (bytes, trace
	// count — evaluated at scrape time) and its lifetime eviction
	// counter on the given registry.
	Metrics *telemetry.Registry

	// now overrides the clock in tests.
	now func() time.Time
}

// Store is a content-addressed trace store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64
	now      func() time.Time

	evictions *telemetry.Counter // nil when no registry was supplied

	mu    sync.Mutex
	log   *wal.Log
	metas map[string]*Meta // digest → meta
	total int64            // sum of stored blob sizes
}

// logRecord is one record of index.wal: exactly one of Put (the trace's
// whole metadata, for a store or a pin change) and Delete (a digest, for
// a delete or an eviction) is set.
type logRecord struct {
	Put    *Meta  `json:"put,omitempty"`
	Delete string `json:"delete,omitempty"`
}

// Open opens (creating if needed) the store at dir, replays index.wal,
// and reconciles the result with the blobs actually on disk: index
// entries whose blob vanished are dropped, and blobs missing from the
// index (e.g. after a crash between blob rename and log append) are
// re-adopted by re-parsing them. A torn final record is cut off; damage
// anywhere else is corruption, and Open fails. A dir holding index.json
// or index.log, the snapshot+log index of earlier builds, is refused
// with an error naming the file, and left as it is.
func Open(dir string, opts Options) (*Store, error) {
	for _, name := range []string{"index.json", "index.log"} {
		if _, err := os.Lstat(filepath.Join(dir, name)); err == nil {
			return nil, fmt.Errorf("corpus: %s is the index of an earlier corpus layout, which this build does not read; store its traces again in a fresh directory",
				filepath.Join(dir, name))
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: opts.MaxBytes,
		now:      opts.now,
		metas:    make(map[string]*Meta),
	}
	if s.now == nil {
		s.now = time.Now
	}
	var err error
	if s.log, err = wal.Open(filepath.Join(dir, "index.wal"), s.apply); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if err := s.reconcile(); err != nil {
		return nil, err
	}
	if reg := opts.Metrics; reg != nil {
		// Gauges are callbacks so a scrape reads the store's state at
		// that instant; only the eviction counter needs a handle. The
		// callbacks take s.mu briefly — the metrics renderer holds no
		// lock of its own while evaluating them, so there is no cycle.
		reg.NewGaugeFunc("perfplay_corpus_blob_bytes",
			"Bytes of trace blobs currently stored.", func() float64 { return float64(s.TotalBytes()) })
		reg.NewGaugeFunc("perfplay_corpus_traces",
			"Traces currently stored.", func() float64 { return float64(s.Len()) })
		s.evictions = reg.NewCounter("perfplay_corpus_evictions_total",
			"Traces evicted to fit the byte budget.")
	}
	return s, nil
}

func (s *Store) blobPath(h string) string { return filepath.Join(s.dir, "blobs", h) }

// apply replays one index.wal record.
func (s *Store) apply(rec logRecord) error {
	if (rec.Put == nil) == (rec.Delete == "") {
		return errors.New("record is neither a put nor a delete")
	}
	if rec.Put != nil {
		s.metas[rec.Put.Digest] = rec.Put
	} else {
		delete(s.metas, rec.Delete)
	}
	return nil
}

// reconcile makes the in-memory index agree with the blobs directory,
// and sweeps blob writes abandoned between their temp file and rename
// ("<hex>.tmp…") so they cannot accumulate. It persists the index
// (rewriting index.wal) only when it changed an entry: opening a store
// that needed no repair writes nothing.
func (s *Store) reconcile() error {
	entries, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	onDisk := make(map[string]int64, len(entries))
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			os.Remove(s.blobPath(e.Name()))
			continue
		}
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		// Only sha256-named files can be blobs; anything else is not
		// ours to read (or adopt), and skipping it up front avoids
		// re-reading junk on every startup.
		if _, err := hex.DecodeString(e.Name()); err != nil || len(e.Name()) != sha256.Size*2 {
			continue
		}
		onDisk[e.Name()] = info.Size()
	}
	changed := false
	for d, m := range s.metas {
		hexPart, err := parseDigest(d)
		size, ok := onDisk[hexPart]
		if err != nil || !ok { // not a digest, or the blob vanished out from under the index
			delete(s.metas, d)
			changed = true
			continue
		}
		if m.Size != size {
			m.Size = size
			changed = true
		}
		s.total += size
		delete(onDisk, hexPart)
	}
	// Adopt stray blobs the index never recorded. Files that do not
	// verify against their name or do not parse as traces are left on
	// disk but unindexed — never destroy data we cannot identify.
	for hexPart := range onDisk {
		data, err := os.ReadFile(s.blobPath(hexPart))
		if err != nil || Digest(data) != DigestPrefix+hexPart {
			continue
		}
		tr, err := trace.Decode(data)
		if err != nil {
			continue
		}
		now := s.now()
		s.metas[DigestPrefix+hexPart] = &Meta{
			Digest:   DigestPrefix + hexPart,
			Size:     int64(len(data)),
			Format:   trace.DetectFormat(data),
			App:      tr.App,
			Events:   len(tr.Events),
			Threads:  tr.NumThreads,
			Created:  now,
			LastUsed: now,
		}
		s.total += int64(len(data))
		changed = true
	}
	if !changed {
		return nil
	}
	return s.rewriteLocked()
}

// appendLocked appends records to index.wal in one write and one fsync,
// then rewrites the log once it is due. Call with mu held.
func (s *Store) appendLocked(recs ...any) error {
	if err := s.log.Append(recs...); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	if s.log.Due(len(s.metas)) {
		// The records are durable already; a failed rewrite leaves the
		// log whole, and the next append tries again.
		_ = s.rewriteLocked()
	}
	return nil
}

// rewriteLocked replaces index.wal with one put record per stored
// trace, in digest order. Call with mu held (or during Open, before the
// store is shared).
func (s *Store) rewriteLocked() error {
	digests := slices.Sorted(maps.Keys(s.metas))
	recs := make([]any, len(digests))
	for i, d := range digests {
		recs[i] = logRecord{Put: s.metas[d]}
	}
	if err := s.log.Rewrite(recs); err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// Put stores raw trace bytes (any encoding), validating first that they
// parse as a non-empty trace an analysis can run (trace.Validate), so a
// stored digest never names a job that fails on its own recording. It
// returns the blob's metadata and
// whether a new blob was created — false means the content was already
// present (the digest matched), which refreshes its LRU recency and,
// when pin is set, pins it.
func (s *Store) Put(data []byte, pin bool) (Meta, bool, error) {
	tr, err := trace.Decode(data)
	if err != nil {
		return Meta{}, false, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if len(tr.Events) == 0 || tr.NumThreads == 0 {
		return Meta{}, false, fmt.Errorf("%w: refusing to store empty trace (%d events, %d threads)",
			ErrInvalid, len(tr.Events), tr.NumThreads)
	}
	if err := tr.Validate(); err != nil {
		return Meta{}, false, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	digest := Digest(data)
	hexPart, _ := parseDigest(digest)

	// Dedupe and feasibility are checked under the mutex, but the
	// fsync'd blob write happens OUTSIDE it — holding the store lock
	// across large-upload disk I/O would block every concurrent Stat,
	// List and healthz probe for seconds. Content addressing makes the
	// unlocked write safe: racing writers of the same digest produce
	// byte-identical files behind an atomic rename, and the insert is
	// re-checked under the lock afterwards.
	if m, existed, err := s.admitLocked(digest, pin, int64(len(data))); existed || err != nil {
		return m, false, err
	}
	if err := wal.WriteFile(s.blobPath(hexPart), data); err != nil {
		return Meta{}, false, fmt.Errorf("corpus: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.metas[digest]; ok { // lost the race to an identical Put
		dm, err := s.dedupeLocked(m, pin)
		return dm, false, err
	}
	now := s.now()
	m := &Meta{
		Digest:   digest,
		Size:     int64(len(data)),
		Format:   trace.DetectFormat(data),
		App:      tr.App,
		Events:   len(tr.Events),
		Threads:  tr.NumThreads,
		Created:  now,
		LastUsed: now,
		Pinned:   pin,
	}
	s.metas[digest] = m
	s.total += m.Size
	victims, err := s.evictLocked(digest)
	if err != nil {
		// Near-unreachable given the admission check (eviction can
		// normally free enough unpinned bytes; only a pin racing in
		// between admit and insert changes that), kept as a rollback so
		// the new blob is never admitted into an over-budget store.
		s.total -= m.Size
		delete(s.metas, digest)
		os.Remove(s.blobPath(hexPart))
		return Meta{}, false, err
	}
	recs := []any{logRecord{Put: m}}
	for _, v := range victims {
		recs = append(recs, logRecord{Delete: v})
	}
	if err := s.appendLocked(recs...); err != nil {
		return Meta{}, false, err
	}
	return *m, true, nil
}

// admitLocked is Put's under-mutex front half: dedupe (refreshing
// recency and upgrading pins) and the up-front budget feasibility
// check. It reports existed=true with the refreshed meta when the
// content is already stored, and an error when the blob can never fit —
// even after evicting every unpinned trace, the pinned residue plus the
// new blob must stay within budget. Rejecting up front means a doomed
// Put never evicts anything.
func (s *Store) admitLocked(digest string, pin bool, size int64) (Meta, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.metas[digest]; ok {
		dm, err := s.dedupeLocked(m, pin)
		return dm, true, err
	}
	if s.maxBytes > 0 {
		if size > s.maxBytes {
			return Meta{}, false, fmt.Errorf("%w: trace is %d bytes, budget %d", ErrBudget, size, s.maxBytes)
		}
		var pinned int64
		for _, m := range s.metas {
			if m.Pinned {
				pinned += m.Size
			}
		}
		if pinned+size > s.maxBytes {
			return Meta{}, false, fmt.Errorf("%w: %d bytes pinned + %d new exceed budget %d",
				ErrBudget, pinned, size, s.maxBytes)
		}
	}
	return Meta{}, false, nil
}

// dedupeLocked is both of Put's answers to content already stored:
// refresh its recency and, when pin upgrades it, log the pin. The common
// idempotent re-upload only moves recency, which — like Get — stays in
// memory; appending a record per duplicate POST would turn dedupe into
// synchronous disk I/O.
func (s *Store) dedupeLocked(m *Meta, pin bool) (Meta, error) {
	m.LastUsed = s.now()
	if pin && !m.Pinned {
		m.Pinned = true
		if err := s.appendLocked(logRecord{Put: m}); err != nil {
			return Meta{}, err
		}
	}
	return *m, nil
}

// evictLocked removes least-recently-used unpinned traces until the
// store fits its budget, never evicting keep (the blob just inserted),
// and returns the evicted digests.
func (s *Store) evictLocked(keep string) ([]string, error) {
	var victims []string
	for s.maxBytes > 0 && s.total > s.maxBytes {
		var victim *Meta
		var pinned int64
		for d, m := range s.metas {
			if d == keep || m.Pinned {
				pinned += m.Size
				continue
			}
			if victim == nil || m.LastUsed.Before(victim.LastUsed) ||
				(m.LastUsed.Equal(victim.LastUsed) && d < victim.Digest) {
				victim = m
			}
		}
		if victim == nil {
			return nil, fmt.Errorf("%w: %d bytes stored, %d pinned or just inserted", ErrBudget, s.total, pinned)
		}
		hexPart, _ := parseDigest(victim.Digest)
		if err := os.Remove(s.blobPath(hexPart)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("corpus: evict %s: %w", victim.Digest, err)
		}
		s.total -= victim.Size
		delete(s.metas, victim.Digest)
		victims = append(victims, victim.Digest)
		if s.evictions != nil {
			s.evictions.Inc()
		}
	}
	return victims, nil
}

// Stat returns the metadata for a digest without touching its recency.
func (s *Store) Stat(digest string) (Meta, error) {
	if _, err := parseDigest(digest); err != nil {
		return Meta{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[digest]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	return *m, nil
}

// Touch refreshes a trace's LRU recency without reading the blob — for
// callers that reference a trace by digest but may be served from a
// result cache without ever loading it, so actively-used traces do not
// become eviction victims just because their bytes were never re-read.
func (s *Store) Touch(digest string) (Meta, error) {
	if _, err := parseDigest(digest); err != nil {
		return Meta{}, err
	}
	m, ok := s.touch(digest)
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	return m, nil
}

// touch looks a digest up and refreshes its LRU recency, returning a
// meta snapshot. Recency moves in memory only — writing the index on
// every read would serialize reads behind synchronous disk I/O — and
// reaches disk at the next rewrite of index.wal (or with the trace's own
// next Pin record); across a restart the order degrades gracefully to
// the last persisted one.
func (s *Store) touch(digest string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[digest]
	if !ok {
		return Meta{}, false
	}
	m.LastUsed = s.now()
	return *m, true
}

// Get returns the stored bytes for a digest and refreshes its LRU
// recency. The blob read happens outside the store mutex — blobs are
// immutable and content-addressed, so the only hazard is a concurrent
// Delete, which surfaces as ErrNotFound.
func (s *Store) Get(digest string) ([]byte, Meta, error) {
	hexPart, err := parseDigest(digest)
	if err != nil {
		return nil, Meta{}, err
	}
	m, ok := s.touch(digest)
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	data, err := os.ReadFile(s.blobPath(hexPart))
	if errors.Is(err, os.ErrNotExist) {
		return nil, Meta{}, fmt.Errorf("%w: %s (deleted concurrently)", ErrNotFound, digest)
	}
	if err != nil {
		return nil, Meta{}, fmt.Errorf("corpus: %w", err)
	}
	return data, m, nil
}

// OpenBlob returns a streaming reader over the stored bytes (refreshing
// LRU recency), so large blobs can be served without buffering them in
// memory. The caller must Close the reader.
func (s *Store) OpenBlob(digest string) (io.ReadCloser, Meta, error) {
	hexPart, err := parseDigest(digest)
	if err != nil {
		return nil, Meta{}, err
	}
	m, ok := s.touch(digest)
	if !ok {
		return nil, Meta{}, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	f, err := os.Open(s.blobPath(hexPart))
	if errors.Is(err, os.ErrNotExist) {
		return nil, Meta{}, fmt.Errorf("%w: %s (deleted concurrently)", ErrNotFound, digest)
	}
	if err != nil {
		return nil, Meta{}, fmt.Errorf("corpus: %w", err)
	}
	return f, m, nil
}

// Load parses the stored trace for a digest (refreshing LRU recency).
func (s *Store) Load(digest string) (*trace.Trace, Meta, error) {
	data, m, err := s.Get(digest)
	if err != nil {
		return nil, Meta{}, err
	}
	tr, err := trace.Decode(data)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("corpus: stored blob %s: %w", digest, err)
	}
	return tr, m, nil
}

// Pin marks a trace exempt from (or, with false, eligible for again)
// LRU eviction.
func (s *Store) Pin(digest string, pinned bool) error {
	if _, err := parseDigest(digest); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[digest]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	m.Pinned = pinned
	return s.appendLocked(logRecord{Put: m})
}

// Delete removes a stored trace, pinned or not.
func (s *Store) Delete(digest string) error {
	hexPart, err := parseDigest(digest)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[digest]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	if err := os.Remove(s.blobPath(hexPart)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("corpus: %w", err)
	}
	s.total -= m.Size
	delete(s.metas, digest)
	return s.appendLocked(logRecord{Delete: digest})
}

// List returns metadata for every stored trace, newest first (ties
// broken by digest for deterministic output).
func (s *Store) List() []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Meta, 0, len(s.metas))
	for _, m := range s.metas {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].Digest < out[j].Digest
	})
	return out
}

// Len reports how many traces are stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.metas)
}

// TotalBytes reports the sum of stored blob sizes.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
