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
	"perfplay/internal/wal"
	"perfplay/internal/workload"
)

// logRecords counts the records in dir's index.wal.
func logRecords(t testing.TB, dir string) int {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, "index.wal"), func(logRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return l.Records()
}

// framed is recs as the frames of an index.wal.
func framed(t testing.TB, recs ...any) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.wal")
	l, err := wal.Open(path, func(logRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
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

// copyStore copies a store directory's index.wal and blobs into a
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
	names := []string{"index.wal"}
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
		if name == "index.wal" {
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
			lastStart := s.log.Size()
			mb, _, err := s.Put(b, false)
			if err != nil {
				t.Fatal(err)
			}
			if tc.last != nil {
				lastStart = s.log.Size()
				if err := tc.last(s, mb); err != nil {
					t.Fatal(err)
				}
			}
			for cut := lastStart; cut < s.log.Size(); cut++ {
				dir := t.TempDir()
				copyStore(t, src, dir, int(cut))
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

// TestDamagedLogRecordFailsOpen: a record that does not check out with
// good records after it cannot be a torn append — it is corruption, and
// Open fails closed naming the file and the offset instead of guessing.
func TestDamagedLogRecordFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var second int64
	for seed := int64(70); seed < 73; seed++ {
		if _, _, err := s.Put(sampleTrace(t, seed), false); err != nil {
			t.Fatal(err)
		}
		if seed == 70 {
			second = s.log.Size()
		}
	}
	path := filepath.Join(dir, "index.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[second+8] = 'x' // record 2's opening brace
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if want := fmt.Sprintf("index.wal offset %d", second); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Open over a damaged record: err = %v, want one naming %s", err, want)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatal("a failed Open rewrote the damaged log")
	}
}

// TestOpenRefusesSnapshotLayout: a corpus holding index.json and
// index.log, the snapshot+log index of earlier builds, fails Open naming
// the file, and Open changes nothing on disk.
func TestOpenRefusesSnapshotLayout(t *testing.T) {
	for _, names := range [][]string{{"index.json", "index.log"}, {"index.log"}} {
		dir := t.TempDir()
		files := map[string][]byte{"blobs/" + strings.Repeat("ab", 32): []byte("blob")}
		for _, name := range names {
			files[name] = []byte(name + " bytes")
		}
		for name, data := range files {
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err := Open(dir, Options{})
		if want := filepath.Join(dir, names[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open over %v: err = %v, want one naming %s", names, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(names)+1 {
			t.Fatalf("Open over %v left %d entries, want %d", names, len(entries), len(names)+1)
		}
		for name, want := range files {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Open over %v changed %s: %q %v", names, name, got, err)
			}
		}
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

// TestLogStaysBounded pins the amortised bound: after every mutation
// the log holds at most max(wal.MinCompact, 2×live traces) records.
// 300 Puts are all live and never rewrite it; deleting 200 of them then
// shrinks the store under its log, and the rewrites that keep the bound
// come at most 4 times.
func TestLogStaysBounded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last os.FileInfo
	rewrites := 0
	check := func(what string) {
		t.Helper()
		if n, bound := logRecords(t, dir), max(wal.MinCompact, 2*s.Len()); n > bound {
			t.Fatalf("after %s: %d log records, bound %d", what, n, bound)
		}
		info, err := os.Stat(filepath.Join(dir, "index.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if last != nil && !os.SameFile(last, info) {
			rewrites++
		}
		last = info
	}
	var ms []Meta
	for i, data := range manyTraces(t, 300) {
		m, _, err := s.Put(data, false)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
		check(fmt.Sprintf("Put %d", i+1))
	}
	if rewrites != 0 {
		t.Fatalf("index.wal rewritten %d times in 300 Puts, want 0", rewrites)
	}
	for i, m := range ms[:200] {
		if err := s.Delete(m.Digest); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Delete %d", i+1))
	}
	if rewrites == 0 || rewrites > 4 {
		t.Fatalf("index.wal rewritten %d times in 200 Deletes, want 1 to 4", rewrites)
	}
}

// TestCompactionRewritesIndex: the mutation that takes the log past
// max(wal.MinCompact, 2×live traces) records rewrites it as one record
// per trace, and the store reopens from that alone.
func TestCompactionRewritesIndex(t *testing.T) {
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
	for i := 0; ; i++ {
		if err := s.Pin(ms[0].Digest, i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if s.log.Records() == 3 {
			if records := 3 + i + 1; records != wal.MinCompact+1 {
				t.Fatalf("rewritten after %d records, want %d", records, wal.MinCompact+1)
			}
			break
		}
		if i > wal.MinCompact {
			t.Fatalf("no rewrite after more than %d records", wal.MinCompact)
		}
	}
	if n := logRecords(t, dir); n != 3 {
		t.Fatalf("%d log records after the rewrite, want 3", n)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(s2.List(), s.List()) {
		t.Fatalf("reopened %+v, want %+v", s2.List(), s.List())
	}
}

// FuzzOpenIndexLog opens a store whose index.wal holds arbitrary bytes,
// beside real blobs. Open must never panic; when it succeeds every
// listed trace names a blob on disk, and opening the (possibly salvaged
// or repaired) store again succeeds with the same index.
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
	if err := s.Pin(mb.Digest, true); err != nil {
		f.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(tmpl, "index.wal"))
	if err != nil {
		f.Fatal(err)
	}
	damaged := bytes.Clone(log)
	damaged[len(damaged)/3] ^= 0xff
	f.Add(log)
	f.Add(log[:len(log)/2]) // a torn record
	f.Add(damaged)          // a damaged record
	f.Add([]byte{})         // an empty log
	f.Add(framed(f, logRecord{Put: &Meta{Digest: Digest([]byte("missing")), Size: 7, Format: "binary", Events: 1, Threads: 1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		copyStore(t, tmpl, dir, 0)
		if err := os.WriteFile(filepath.Join(dir, "index.wal"), data, 0o644); err != nil {
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
	const workers, each = 4, 40
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
	if n, mutations := s.log.Records(), workers*each*7/4; n >= mutations {
		t.Fatalf("%d mutations crossed no compaction: %d records", mutations, n)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameList(s2.List(), s.List()) {
		t.Fatalf("reopened %+v, want %+v", s2.List(), s.List())
	}
}
