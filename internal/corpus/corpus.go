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
//	<dir>/index.json     metadata for every stored trace
//	<dir>/blobs/<hex>    the raw trace bytes (binary or JSON encoding)
//
// Blobs and the index are written atomically (temp file + rename in the
// same directory), so a crashed writer never leaves a partial blob
// under a valid name. A configurable byte budget bounds the store;
// exceeding it evicts least-recently-used unpinned traces.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
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
	metas map[string]*Meta // digest → meta
	total int64            // sum of stored blob sizes
}

// Open opens (creating if needed) the store at dir and reconciles the
// index with the blobs actually on disk: index entries whose blob
// vanished are dropped, and blobs missing from the index (e.g. after a
// crash between blob rename and index write) are re-adopted by
// re-parsing them.
func Open(dir string, opts Options) (*Store, error) {
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
	if err := s.loadIndex(); err != nil {
		return nil, err
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

func (s *Store) indexPath() string        { return filepath.Join(s.dir, "index.json") }
func (s *Store) blobPath(h string) string { return filepath.Join(s.dir, "blobs", h) }

func (s *Store) loadIndex() error {
	data, err := os.ReadFile(s.indexPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("corpus: read index: %w", err)
	}
	var metas []*Meta
	if err := json.Unmarshal(data, &metas); err != nil {
		return fmt.Errorf("corpus: parse index: %w", err)
	}
	for _, m := range metas {
		s.metas[m.Digest] = m
	}
	return nil
}

// reconcile makes the in-memory index agree with the blobs directory,
// and sweeps the store's own crash leftovers (tmp-* files abandoned
// between CreateTemp and rename) so they cannot accumulate. It rewrites
// index.json only when it changed an entry: opening a store that needed
// no repair writes nothing.
func (s *Store) reconcile() error {
	for _, sub := range []string{s.dir, filepath.Join(s.dir, "blobs")} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "tmp-") {
				os.Remove(filepath.Join(sub, e.Name()))
			}
		}
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	onDisk := make(map[string]int64, len(entries))
	for _, e := range entries {
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
	return s.saveIndexLocked()
}

// saveIndexLocked atomically rewrites index.json; call with mu held (or
// during Open, before the store is shared).
func (s *Store) saveIndexLocked() error {
	metas := make([]*Meta, 0, len(s.metas))
	for _, m := range s.metas {
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Digest < metas[j].Digest })
	data, err := json.MarshalIndent(metas, "", " ")
	if err != nil {
		return fmt.Errorf("corpus: encode index: %w", err)
	}
	return atomicWrite(s.indexPath(), data)
}

// atomicWrite writes data to path via a temp file + rename in the same
// directory, so readers never observe a partial file.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: write %s: %w", filepath.Base(path), werr)
	}
	return nil
}

// Put stores raw trace bytes (either encoding), validating that they
// parse as a non-empty trace first. It returns the blob's metadata and
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
	if err := atomicWrite(s.blobPath(hexPart), data); err != nil {
		return Meta{}, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.metas[digest]; ok { // lost the race to an identical Put
		m.LastUsed = s.now()
		m.Pinned = m.Pinned || pin
		return *m, false, nil
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
	if err := s.evictLocked(digest); err != nil {
		// Near-unreachable given the admission check (eviction can
		// normally free enough unpinned bytes; only a pin racing in
		// between admit and insert changes that), kept as a rollback so
		// the new blob is never admitted into an over-budget store.
		s.total -= m.Size
		delete(s.metas, digest)
		os.Remove(s.blobPath(hexPart))
		return Meta{}, false, err
	}
	if err := s.saveIndexLocked(); err != nil {
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
		m.LastUsed = s.now()
		// The common idempotent re-upload only moves recency, which —
		// like Get — stays in memory until the next real mutation;
		// rewriting the index per duplicate POST would turn dedupe into
		// synchronous disk I/O.
		if pin && !m.Pinned {
			m.Pinned = true
			if err := s.saveIndexLocked(); err != nil {
				return Meta{}, true, err
			}
		}
		return *m, true, nil
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

// evictLocked removes least-recently-used unpinned traces until the
// store fits its budget, never evicting keep (the blob just inserted).
func (s *Store) evictLocked(keep string) error {
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
			return fmt.Errorf("%w: %d bytes stored, %d pinned or just inserted", ErrBudget, s.total, pinned)
		}
		hexPart, _ := parseDigest(victim.Digest)
		if err := os.Remove(s.blobPath(hexPart)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("corpus: evict %s: %w", victim.Digest, err)
		}
		s.total -= victim.Size
		delete(s.metas, victim.Digest)
		if s.evictions != nil {
			s.evictions.Inc()
		}
	}
	return nil
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
// meta snapshot. Recency moves in memory only — rewriting the index on
// every read would serialize reads behind synchronous disk I/O — and is
// persisted by the next mutating operation (Put/Delete/Pin); across a
// restart the order degrades gracefully to the last persisted one.
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
	return s.saveIndexLocked()
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
	return s.saveIndexLocked()
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
