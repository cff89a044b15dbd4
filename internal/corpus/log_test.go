package corpus

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"perfplay/internal/sim"
	"perfplay/internal/workload"
)

// logRecords counts the records in dir's index.log (0 when it is absent).
func logRecords(t testing.TB, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if errors.Is(err, os.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// sameList reports whether two List results agree entry by entry,
// comparing times as instants.
func sameList(a, b []Meta) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Created.Equal(y.Created) || !x.LastUsed.Equal(y.LastUsed) {
			return false
		}
		x.Created, x.LastUsed, y.Created, y.LastUsed = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if x != y {
			return false
		}
	}
	return true
}

// copyStore copies a store directory's index files and blobs into a
// fresh directory, the log cut to its first logLen bytes.
func copyStore(t testing.TB, src, dst string, logLen int) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dst, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	blobs, err := os.ReadDir(filepath.Join(src, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"index.json", "index.log"}
	for _, b := range blobs {
		names = append(names, filepath.Join("blobs", b.Name()))
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(src, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if name == "index.log" {
			data = data[:logLen]
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// manyTraces records one small workload and returns n distinct
// encodings of it (each under its own App name, so each has its own
// digest) — cheaper than recording n runs.
func manyTraces(t testing.TB, n int) [][]byte {
	t.Helper()
	app := workload.MustGet("pbzip2")
	tr := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.02, Seed: 1}), sim.Config{Seed: 1}).Trace
	out := make([][]byte, n)
	for i := range out {
		tr.App = fmt.Sprintf("pbzip2-%d", i)
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestDedupeLogsPinUpgrade pins the helper both of Put's dedupe paths
// (the pre-check and the lost race, which cannot be scheduled from a
// test) go through: a pin upgrade appends one record and survives a
// reopen, and a dedupe that changes no pin appends nothing.
func TestDedupeLogsPinUpgrade(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := s.Put(sampleTrace(t, 50), false)
	if err != nil {
		t.Fatal(err)
	}
	dedupe := func(pin bool) Meta {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		dm, err := s.dedupeLocked(s.metas[m.Digest], pin)
		if err != nil {
			t.Fatal(err)
		}
		return dm
	}
	if dm := dedupe(false); dm.Pinned || !dm.LastUsed.After(m.LastUsed) || logRecords(t, dir) != 1 {
		t.Fatalf("plain dedupe: pinned=%v recency moved=%v, %d records (want 1)",
			dm.Pinned, dm.LastUsed.After(m.LastUsed), logRecords(t, dir))
	}
	if dm := dedupe(true); !dm.Pinned || logRecords(t, dir) != 2 {
		t.Fatalf("pin upgrade: pinned=%v, %d records (want 2)", dm.Pinned, logRecords(t, dir))
	}
	if dedupe(true); logRecords(t, dir) != 2 {
		t.Fatalf("a dedupe of a pinned trace appended a record: %d records", logRecords(t, dir))
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sm, err := s2.Stat(m.Digest); err != nil || !sm.Pinned {
		t.Fatalf("pin upgrade lost across reopen: %+v err=%v", sm, err)
	}
}

// TestTornLogTailAtEveryOffset cuts the log's last record at every byte
// offset, as a crash mid-append would. Open must succeed and keep what
// was acknowledged before; the torn Put's trace comes back through
// reconcile, a torn Pin is simply not applied; and the next Put must
// leave a log that reopens cleanly.
func TestTornLogTailAtEveryOffset(t *testing.T) {
	a, b, c := sampleTrace(t, 60), sampleTrace(t, 61), sampleTrace(t, 62)
	for _, tc := range []struct {
		name string
		last func(s *Store, mb Meta) error // the mutation whose record is torn
	}{
		{"put", nil},
		{"pin", func(s *Store, mb Meta) error { return s.Pin(mb.Digest, true) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := t.TempDir()
			s, err := Open(src, Options{now: fakeClock()})
			if err != nil {
				t.Fatal(err)
			}
			ma, _, err := s.Put(a, true)
			if err != nil {
				t.Fatal(err)
			}
			mb, _, err := s.Put(b, false)
			if err != nil {
				t.Fatal(err)
			}
			if tc.last != nil {
				if err := tc.last(s, mb); err != nil {
					t.Fatal(err)
				}
			}
			full, err := os.ReadFile(filepath.Join(src, "index.log"))
			if err != nil {
				t.Fatal(err)
			}
			lastStart := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
			for cut := lastStart; cut < len(full); cut++ {
				dir := t.TempDir()
				copyStore(t, src, dir, cut)
				s, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				if got := s.List(); len(got) != 2 {
					t.Fatalf("cut at %d: %d traces, want 2", cut, len(got))
				}
				if sa, err := s.Stat(ma.Digest); err != nil || !sa.Pinned {
					t.Fatalf("cut at %d: acknowledged pinned Put lost: %+v %v", cut, sa, err)
				}
				got, err := s.Stat(mb.Digest)
				if err != nil {
					t.Fatalf("cut at %d: %v", cut, err)
				}
				if got.Digest != mb.Digest || got.Size != mb.Size || got.App != mb.App ||
					got.Events != mb.Events || got.Threads != mb.Threads || got.Pinned {
					t.Fatalf("cut at %d: got %+v, want %+v", cut, got, mb)
				}
				if _, _, err := s.Put(c, false); err != nil {
					t.Fatalf("cut at %d: put after salvage: %v", cut, err)
				}
				s2, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("cut at %d: reopen after salvage and Put: %v", cut, err)
				}
				if !sameList(s2.List(), s.List()) {
					t.Fatalf("cut at %d: reopened %v, want %v", cut, s2.List(), s.List())
				}
			}
		})
	}
}

// TestDamagedLogRecordFailsOpen: a record that does not parse with good
// records after it cannot be a torn append — it is corruption, and Open
// fails closed naming the file and the line instead of guessing.
func TestDamagedLogRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(70); seed < 73; seed++ {
		if _, _, err := s.Put(sampleTrace(t, seed), false); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "index.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := bytes.IndexByte(data, '\n') + 1
	data[second] = 'x' // line 2's opening brace
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "index.log line 2") {
		t.Fatalf("Open over a damaged record: err = %v, want one naming index.log line 2", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatal("a failed Open rewrote the damaged log")
	}
}

// TestCrashBetweenSnapshotAndLogRemoval replays a whole log over the
// snapshot that already subsumes it — the state a crash between a
// compaction's rename and the log's removal leaves — and must arrive at
// the same index, recency included, that the store held in memory.
func TestCrashBetweenSnapshotAndLogRemoval(t *testing.T) {
	tr := manyTraces(t, 4)
	dir := t.TempDir()
	budget := int64(len(tr[0]) + len(tr[1]) + len(tr[2]))
	s, err := Open(dir, Options{MaxBytes: budget, now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	var ms []Meta
	for i, data := range tr {
		m, _, err := s.Put(data, i == 1)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		if i == 0 {
			if _, _, err := s.Get(m.Digest); err != nil { // recency only, no record
				t.Fatal(err)
			}
		}
	}
	if err := s.Pin(ms[1].Digest, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ms[3].Digest); err != nil {
		t.Fatal(err)
	}
	// ms[0] was evicted by the fourth Put; touch a survivor after its
	// last record, so only the snapshot holds its recency.
	if _, _, err := s.Get(ms[2].Digest); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "index.log")
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, log, 0o644); err != nil { // the removal never happened
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(s2.List(), s.List()) {
		t.Fatalf("replaying a subsumed log: reopened %+v, want %+v", s2.List(), s.List())
	}
}

// TestEvictingPutSurvivesReopen: a Put that evicts logs its own record
// and one delete per victim in the same append, so after a reopen the
// victims stay gone and the pins stay set.
func TestEvictingPutSurvivesReopen(t *testing.T) {
	small := manyTraces(t, 3)
	big := sampleTrace(t, 80)
	l := int64(len(small[0]))
	if int64(len(big)) < 2*l {
		t.Fatalf("fixture: big trace %d bytes, want at least 2×%d", len(big), l)
	}
	// The pinned resident and the big trace fit; the two unpinned
	// residents must both go to make room for it.
	budget := int64(len(big)) + l
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: budget, now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	var ms []Meta
	for i, data := range small {
		m, _, err := s.Put(data, i == 1)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	mbig, _, err := s.Put(big, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := logRecords(t, dir); got != 6 {
		t.Fatalf("%d log records after 4 Puts and two evictions, want 6", got)
	}
	s2, err := Open(dir, Options{MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Meta{ms[0], ms[2]} {
		if _, err := s2.Stat(m.Digest); !errors.Is(err, ErrNotFound) {
			t.Fatalf("evicted %s back after reopen: %v", m.App, err)
		}
	}
	if m, err := s2.Stat(ms[1].Digest); err != nil || !m.Pinned {
		t.Fatalf("pinned trace after reopen: %+v %v", m, err)
	}
	if _, err := s2.Stat(mbig.Digest); err != nil {
		t.Fatalf("evicting Put lost across reopen: %v", err)
	}
	if !sameList(s2.List(), s.List()) {
		t.Fatalf("reopened %+v, want %+v", s2.List(), s.List())
	}
}

// TestLogStaysBounded pins the amortised bound: across 300 Puts the log
// never holds more than max(64, live traces) records, and the snapshot
// is replaced at most ⌈log2(300/64)⌉+1 = 4 times. Deleting 200 of them
// then shrinks the store under its log, and compaction must keep the
// same bound.
func TestLogStaysBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		if n, bound := logRecords(t, dir), max(minCompact, s.Len()); n > bound {
			t.Fatalf("after %s: %d log records, bound %d", what, n, bound)
		}
	}
	var last os.FileInfo
	replaced := 0
	var ms []Meta
	for i, data := range manyTraces(t, 300) {
		m, _, err := s.Put(data, false)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		check(fmt.Sprintf("Put %d", i+1))
		if info, err := os.Stat(filepath.Join(dir, "index.json")); err == nil && (last == nil || !os.SameFile(last, info)) {
			replaced++
			last = info
		}
	}
	if replaced > 4 {
		t.Fatalf("index.json replaced %d times in 300 Puts, want at most 4", replaced)
	}
	for i, m := range ms[:200] {
		if err := s.Delete(m.Digest); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Delete %d", i+1))
	}
}

// TestCompactionFoldsLogIntoSnapshot: once the log outgrows
// max(64, live traces), the next mutation writes a snapshot and removes
// the log, and the store reopens from the snapshot alone.
func TestCompactionFoldsLogIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{now: fakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	var ms []Meta
	for _, data := range manyTraces(t, 3) {
		m, _, err := s.Put(data, false)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	index := filepath.Join(dir, "index.json")
	for i := 0; ; i++ {
		if err := s.Pin(ms[0].Digest, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(index); err == nil {
			if records := 3 + i + 1; records != minCompact+1 {
				t.Fatalf("snapshot written after %d records, want %d", records, minCompact+1)
			}
			break
		}
		if i > minCompact {
			t.Fatal("no snapshot after more than 64 records")
		}
	}
	if n := logRecords(t, dir); n != 0 {
		t.Fatalf("%d log records left after compaction", n)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(s2.List(), s.List()) {
		t.Fatalf("reopened %+v, want %+v", s2.List(), s.List())
	}
}

// FuzzOpenIndexLog opens a store whose index.log holds arbitrary bytes,
// beside a real snapshot and real blobs. Open must never panic; when it
// succeeds every listed trace names a blob on disk, and opening the
// (possibly salvaged or repaired) store again succeeds with the same
// index.
func FuzzOpenIndexLog(f *testing.F) {
	tmpl := f.TempDir()
	s, err := Open(tmpl, Options{now: fakeClock()})
	if err != nil {
		f.Fatal(err)
	}
	tr := manyTraces(f, 2)
	if _, _, err := s.Put(tr[0], true); err != nil {
		f.Fatal(err)
	}
	mb, _, err := s.Put(tr[1], false)
	if err != nil {
		f.Fatal(err)
	}
	s.mu.Lock()
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Pin(mb.Digest, true); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(tmpl, "index.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)/2])                                    // a torn line
	f.Add(bytes.ReplaceAll(log, []byte("\n"), []byte("\r\n"))) // a CRLF line
	f.Add([]byte{})                                            // an empty file
	f.Add([]byte(`{"put":{"digest":"` + Digest([]byte("missing")) + `","size":7,"format":"binary","events":1,"threads":1,"created":"2026-07-26T00:00:00Z","last_used":"2026-07-26T00:00:00Z"}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		copyStore(t, tmpl, dir, 0)
		if err := os.WriteFile(filepath.Join(dir, "index.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		list := s.List()
		for _, m := range list {
			if _, err := os.Stat(filepath.Join(dir, "blobs", strings.TrimPrefix(m.Digest, DigestPrefix))); err != nil {
				t.Fatalf("listed %s has no blob: %v", m.Digest, err)
			}
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if !sameList(s2.List(), list) {
			t.Fatalf("second Open: %+v, want %+v", s2.List(), list)
		}
	})
}

// TestConcurrentMutationsSurviveReopen: Puts, Pins and Deletes from
// several goroutines at once, enough of them to cross a compaction, all
// survive a reopen exactly as acknowledged.
func TestConcurrentMutationsSurviveReopen(t *testing.T) {
	const workers, each = 4, 20
	tr := manyTraces(t, workers*each)
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine [][]byte) {
			defer wg.Done()
			for i, data := range mine {
				m, _, err := s.Put(data, false)
				if err == nil && i%2 == 0 {
					err = s.Pin(m.Digest, true)
				}
				if err == nil && i%4 == 1 {
					err = s.Delete(m.Digest)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(tr[w*each : (w+1)*each])
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := workers * (each - each/4); s.Len() != want {
		t.Fatalf("%d traces stored, want %d", s.Len(), want)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err != nil {
		t.Fatalf("%d mutations crossed no compaction: %v", workers*each*7/4, err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(s2.List(), s.List()) {
		t.Fatalf("reopened %+v, want %+v", s2.List(), s.List())
	}
}
