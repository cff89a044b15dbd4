package corpus

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// sampleTrace records a small deterministic workload and returns its
// serialized bytes; different seeds yield different digests.
func sampleTrace(t *testing.T, seed int64) []byte {
	t.Helper()
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.1, Seed: seed}), sim.Config{Seed: seed})
	var buf bytes.Buffer
	if err := rec.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fakeClock hands out strictly increasing times so LRU order is
// deterministic regardless of wall-clock resolution.
func fakeClock() func() time.Time {
	now := time.Date(2026, 7, 26, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		now = now.Add(time.Second)
		return now
	}
}

func TestPutGetDedupe(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := sampleTrace(t, 1)

	m, created, err := s.Put(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first Put reported existing blob")
	}
	if m.Digest != Digest(data) {
		t.Fatalf("digest = %s, want %s", m.Digest, Digest(data))
	}
	if m.Size != int64(len(data)) || m.Format != trace.FormatBinary || m.App != "pbzip2" {
		t.Fatalf("meta = %+v", m)
	}

	// Same content again: one blob, same digest, created=false.
	m2, created, err := s.Put(data, false)
	if err != nil {
		t.Fatal(err)
	}
	if created || m2.Digest != m.Digest {
		t.Fatalf("dedupe: created=%v digest=%s", created, m2.Digest)
	}
	if s.Len() != 1 || s.TotalBytes() != int64(len(data)) {
		t.Fatalf("store holds %d traces / %d bytes after dedupe", s.Len(), s.TotalBytes())
	}

	got, gm, err := s.Get(m.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || gm.Digest != m.Digest {
		t.Fatal("Get returned different bytes")
	}
	tr, _, err := s.Load(m.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if tr.App != "pbzip2" || len(tr.Events) != m.Events {
		t.Fatalf("Load: app=%s events=%d", tr.App, len(tr.Events))
	}

	// JSON encoding of the same trace is different content: second blob.
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.1, Seed: 1}), sim.Config{Seed: 1})
	var js bytes.Buffer
	if err := rec.Trace.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	jm, created, err := s.Put(js.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !created || jm.Format != trace.FormatJSON || jm.Digest == m.Digest {
		t.Fatalf("json put: created=%v meta=%+v", created, jm)
	}
}

func TestRejectsGarbageAndEmptyAndBadDigests(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put([]byte("not a trace"), false); !errors.Is(err, ErrInvalid) {
		t.Fatalf("garbage: err = %v, want ErrInvalid", err)
	}
	// A structurally valid but empty trace must be refused.
	var buf bytes.Buffer
	if err := trace.New("empty", 0).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(buf.Bytes(), false); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("empty trace: err = %v", err)
	}

	for _, d := range []string{"", "sha256:zz", "md5:abc", "sha256:" + strings.Repeat("g", 64)} {
		if _, _, err := s.Get(d); !errors.Is(err, ErrInvalid) {
			t.Fatalf("digest %q: err = %v, want ErrInvalid", d, err)
		}
	}
	missing := Digest([]byte("missing"))
	if _, _, err := s.Get(missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v", err)
	}
	if _, err := s.Stat(missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Stat(missing) = %v", err)
	}
	if err := s.Delete(missing); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(missing) = %v", err)
	}
}

// TestPutRefusesWhatNoAnalysisCanRun: a recording patched into one that
// decodes but fails trace.Validate is ErrInvalid, and leaves neither a
// blob nor an index record behind. Put used to store it, and every job
// over its digest then failed on the recording.
func TestPutRefusesWhatNoAnalysisCanRun(t *testing.T) {
	raw := sampleTrace(t, 1)
	first := func(tr *trace.Trace, kind trace.Kind) int {
		for i, e := range tr.Events {
			if e.Kind == kind {
				return i
			}
		}
		t.Fatalf("the recording has no %v event", kind)
		return 0
	}
	for _, tc := range []struct {
		name  string
		patch func(tr *trace.Trace)
	}{
		{"write op 7", func(tr *trace.Trace) { tr.Events[first(tr, trace.KWrite)].Op = 7 }},
		{"thread past the count", func(tr *trace.Trace) { tr.Events[0].Thread = int32(tr.NumThreads) }},
		{"unbalanced locks", func(tr *trace.Trace) {
			i := first(tr, trace.KLockRel)
			tr.Events = append(tr.Events[:i], tr.Events[i+1:]...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			index, err := os.ReadFile(filepath.Join(dir, "index.wal"))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			tr, err := trace.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("the unpatched recording: %v", err)
			}
			tc.patch(tr)
			var buf bytes.Buffer
			if err := tr.WriteBinary(&buf); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Put(buf.Bytes(), false); !errors.Is(err, ErrInvalid) {
				t.Fatalf("Put = %v, want ErrInvalid", err)
			}
			if blobs, err := os.ReadDir(filepath.Join(dir, "blobs")); err != nil || len(blobs) != 0 {
				t.Fatalf("blobs left behind: %v (%v)", blobs, err)
			}
			after, err := os.ReadFile(filepath.Join(dir, "index.wal"))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if !bytes.Equal(after, index) || s.Len() != 0 {
				t.Fatalf("index.wal went from %d to %d bytes, %d entries", len(index), len(after), s.Len())
			}
		})
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := sampleTrace(t, 2)
	m, _, err := s.Put(data, true) // pinned traces still Delete
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(m.Digest); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(m.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Fatalf("len=%d bytes=%d after delete", s.Len(), s.TotalBytes())
	}
	blobs, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 0 {
		t.Fatalf("%d blobs left on disk", len(blobs))
	}
}

func TestLRUEvictionRespectsRecencyAndPins(t *testing.T) {
	a := sampleTrace(t, 10)
	b := sampleTrace(t, 11)
	c := sampleTrace(t, 12)
	budget := int64(len(a) + len(b) + len(c)) // all three fit; a fourth will not

	s, err := Open(t.TempDir(), Options{MaxBytes: budget, now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	ma, _, _ := s.Put(a, false)
	mb, _, _ := s.Put(b, true) // pinned: never evicted
	mc, _, _ := s.Put(c, false)

	// Touch a so c becomes the least recently used unpinned trace.
	if _, _, err := s.Get(ma.Digest); err != nil {
		t.Fatal(err)
	}

	d := sampleTrace(t, 13)
	md, created, err := s.Put(d, false)
	if err != nil || !created {
		t.Fatalf("put d: created=%v err=%v", created, err)
	}
	if _, err := s.Stat(mc.Digest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("c should have been evicted (LRU), got %v", err)
	}
	for _, digest := range []string{ma.Digest, mb.Digest, md.Digest} {
		if _, err := s.Stat(digest); err != nil {
			t.Fatalf("%s unexpectedly evicted: %v", digest, err)
		}
	}
	if s.TotalBytes() > budget {
		t.Fatalf("store over budget: %d > %d", s.TotalBytes(), budget)
	}
}

func TestBudgetExhaustedByPins(t *testing.T) {
	a := sampleTrace(t, 20)
	b := sampleTrace(t, 21)
	s, err := Open(t.TempDir(), Options{MaxBytes: int64(len(a)) + 1, now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(a, true); err != nil {
		t.Fatal(err)
	}
	// b cannot fit alongside the pinned a: the Put must be refused up
	// front, storing nothing.
	if _, _, err := s.Put(b, false); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d after refused put", s.Len())
	}
	if _, err := s.Stat(Digest(b)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("refused blob still indexed: %v", err)
	}
}

// TestRefusedPutEvictsNothing pins down the no-data-loss contract: a
// Put that cannot possibly fit (pinned residue + new blob over budget)
// must not evict any existing unpinned trace on its way to failing.
func TestRefusedPutEvictsNothing(t *testing.T) {
	pinned := sampleTrace(t, 22)
	resident := sampleTrace(t, 23)
	incoming := sampleTrace(t, 24)
	// Budget: both residents fit, but pinned + incoming never can.
	budget := int64(len(pinned) + len(resident))
	if int64(len(pinned)+len(incoming)) <= budget {
		t.Fatalf("fixture sizes defeat the setup: %d+%d <= %d", len(pinned), len(incoming), budget)
	}
	s, err := Open(t.TempDir(), Options{MaxBytes: budget, now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(pinned, true); err != nil {
		t.Fatal(err)
	}
	mr, _, err := s.Put(resident, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(incoming, false); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if _, err := s.Stat(mr.Digest); err != nil {
		t.Fatalf("refused Put destroyed a stored trace: %v", err)
	}

	// A single blob larger than the whole budget is refused outright.
	s2, err := Open(t.TempDir(), Options{MaxBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Put(incoming, false); !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized blob: err = %v", err)
	}
}

func TestReopenPersistsIndexAndRecoversStrays(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := sampleTrace(t, 30)
	b := sampleTrace(t, 31)
	ma, _, _ := s.Put(a, true)
	mb, _, _ := s.Put(b, false)

	// Reopen: the index round-trips, including pins.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 || s2.TotalBytes() != int64(len(a)+len(b)) {
		t.Fatalf("reopened: len=%d bytes=%d", s2.Len(), s2.TotalBytes())
	}
	sa, err := s2.Stat(ma.Digest)
	if err != nil || !sa.Pinned {
		t.Fatalf("pin lost across reopen: %+v err=%v", sa, err)
	}

	// Losing the index (crash between blob rename and log append, or a
	// deleted index.wal) must not lose identifiable blobs.
	if err := os.Remove(filepath.Join(dir, "index.wal")); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 2 {
		t.Fatalf("recovered %d traces from blobs, want 2", s3.Len())
	}
	got, _, err := s3.Get(mb.Digest)
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("recovered blob differs: %v", err)
	}

	// A corrupt stray blob is ignored, not adopted and not deleted.
	bad := filepath.Join(dir, "blobs", strings.Repeat("ab", 32))
	if err := os.WriteFile(bad, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s4, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s4.Len() != 2 {
		t.Fatalf("corrupt blob adopted: len=%d", s4.Len())
	}
	if _, err := os.Stat(bad); err != nil {
		t.Fatalf("corrupt blob deleted: %v", err)
	}

	// Crash-leftover temp files (the store's own naming: an index rewrite's
	// and a blob write's) are swept on Open; nothing else may linger either.
	for _, tmp := range []string{"index.wal.tmp123456", filepath.Join("blobs", strings.Repeat("cd", 32)+".tmp123456")} {
		if err := os.WriteFile(filepath.Join(dir, tmp), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{dir, filepath.Join(dir, "blobs")} {
		entries, err := os.ReadDir(sub)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.Contains(e.Name(), ".tmp") {
				t.Fatalf("leftover temp file %s", e.Name())
			}
		}
	}
}

func TestListOrder(t *testing.T) {
	s, err := Open(t.TempDir(), Options{now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	ma, _, _ := s.Put(sampleTrace(t, 40), false)
	mb, _, _ := s.Put(sampleTrace(t, 41), false)
	list := s.List()
	if len(list) != 2 {
		t.Fatalf("list len = %d", len(list))
	}
	if list[0].Digest != mb.Digest || list[1].Digest != ma.Digest {
		t.Fatalf("list not newest-first: %s, %s", list[0].Digest, list[1].Digest)
	}
}

// TestPutColumnarTrace pins format metadata for the columnar encoding:
// the store must record FormatColumnar for "PCOL" blobs and load them
// through the shared sniffing reader like any other format.
func TestPutColumnarTrace(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.1, Seed: 9}), sim.Config{Seed: 9})
	var buf bytes.Buffer
	if err := rec.Trace.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}

	m, created, err := s.Put(buf.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("fresh columnar blob reported as duplicate")
	}
	if m.Format != trace.FormatColumnar {
		t.Fatalf("Meta.Format = %q, want %q", m.Format, trace.FormatColumnar)
	}

	tr, meta, err := s.Load(m.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != trace.FormatColumnar {
		t.Fatalf("loaded Meta.Format = %q", meta.Format)
	}
	if tr.App != rec.Trace.App || len(tr.Events) != len(rec.Trace.Events) {
		t.Fatalf("loaded %s/%d events, want %s/%d", tr.App, len(tr.Events), rec.Trace.App, len(rec.Trace.Events))
	}
}

// TestOpenRewritesIndexOnlyWhenReconcileChangedIt: opening a store that
// needs no repair leaves index.wal alone (every CLI run and daemon boot
// would otherwise pay a temp file, an fsync and a rename for it), while
// each of reconcile's three repairs — a dropped entry, a corrected
// size, an adopted blob — still persists, as a rewrite of index.wal.
func TestOpenRewritesIndexOnlyWhenReconcileChangedIt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ma, _, _ := s.Put(sampleTrace(t, 40), false)
	mb, _, _ := s.Put(sampleTrace(t, 41), false)
	index := filepath.Join(dir, "index.wal")
	stat := func() os.FileInfo {
		t.Helper()
		info, err := os.Stat(index)
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	same := func(a, b os.FileInfo) bool {
		return os.SameFile(a, b) && a.ModTime().Equal(b.ModTime()) && a.Size() == b.Size()
	}
	reopen := func() *Store {
		t.Helper()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// persisted reports that the last reopen rewrote index.wal.
	persisted := func(before os.FileInfo) bool { return !os.SameFile(before, stat()) }
	blob := func(m Meta) string { return filepath.Join(dir, "blobs", strings.TrimPrefix(m.Digest, DigestPrefix)) }

	before := stat()
	if s2 := reopen(); s2.Len() != 2 {
		t.Fatalf("reopened %d traces, want 2", s2.Len())
	}
	if !same(before, stat()) {
		t.Fatal("opening an unchanged corpus wrote its index")
	}

	// A corrected size: the blob grew behind the index's back.
	f, err := os.OpenFile(blob(ma), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before = stat()
	reopen()
	if !persisted(before) {
		t.Fatal("a corrected size was not persisted")
	}

	// A dropped entry: the blob vanished.
	if err := os.Remove(blob(ma)); err != nil {
		t.Fatal(err)
	}
	before = stat()
	if s2 := reopen(); s2.Len() != 1 {
		t.Fatalf("%d traces after a blob vanished, want 1", s2.Len())
	}
	if !persisted(before) {
		t.Fatal("a dropped entry was not persisted")
	}

	// An adopted blob: on disk, absent from the index.
	if err := os.WriteFile(index, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before = stat()
	if s2 := reopen(); s2.Len() != 1 {
		t.Fatalf("%d traces adopted, want 1", s2.Len())
	}
	if !persisted(before) {
		t.Fatal("an adopted blob was not persisted")
	}
	// And what was persisted is the repaired index: nothing left to do.
	before = stat()
	if _, err := reopen().Stat(mb.Digest); err != nil {
		t.Fatal(err)
	}
	if !same(before, stat()) {
		t.Fatal("reopening the repaired corpus wrote its index")
	}
}
