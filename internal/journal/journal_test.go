package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"perfplay/internal/telemetry"
	"perfplay/internal/wal"
)

// testOpts keeps tests fast: no fsync (the process outlives every
// assertion).
func testOpts() Options { return Options{NoSync: true} }

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func mustAppend(t *testing.T, j *Journal, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append(%+v): %v", r, err)
		}
	}
}

func admitted(id string) Record {
	return Record{Op: OpAdmitted, Job: id, Spec: json.RawMessage(`{"app":"pbzip2"}`), Meta: map[string]string{"trace_id": "t-" + id}}
}

// appendRaw frames recs onto the log at path as they are, past Append's
// op check.
func appendRaw(t testing.TB, path string, recs ...Record) {
	t.Helper()
	l, err := wal.Open(path, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func liveIDs(j *Journal) []string {
	var ids []string
	for _, lj := range j.Live() {
		ids = append(ids, lj.Job)
	}
	return ids
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())
	mustAppend(t, j,
		admitted("a"), admitted("b"), admitted("c"), admitted("d"),
		Record{Op: OpSettled, Job: "a"},
		Record{Op: OpFailed, Job: "d"},
	)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, dir, testOpts())
	defer j2.Close()
	live := j2.Live()
	if got, want := len(live), 2; got != want {
		t.Fatalf("live jobs = %d, want %d (%+v)", got, want, live)
	}
	// Admit order: b before c.
	if live[0].Job != "b" || live[1].Job != "c" {
		t.Fatalf("live order = %s,%s; want b,c", live[0].Job, live[1].Job)
	}
	if string(live[0].Spec) != `{"app":"pbzip2"}` {
		t.Errorf("spec = %s", live[0].Spec)
	}
	if live[1].Meta["trace_id"] != "t-c" {
		t.Errorf("meta = %v", live[1].Meta)
	}
	if got := j2.Newest(); got != "d" {
		t.Errorf("Newest = %q, want d", got)
	}
}

// TestReplayIdempotence: opening the same log twice (no writes in
// between) yields the same state — and so does a recovery-style
// re-admission of the live jobs, which is what the daemon does at boot.
func TestReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())
	mustAppend(t, j,
		admitted("a"), admitted("b"), admitted("c"),
		Record{Op: OpSettled, Job: "b"},
	)
	j.Close()

	j2 := mustOpen(t, dir, testOpts())
	first := j2.Live()
	// The daemon re-admits recovered jobs through the same journal;
	// replaying those extra records must not change the state.
	for _, lj := range first {
		mustAppend(t, j2, Record{Op: OpAdmitted, Job: lj.Job, Spec: lj.Spec, Meta: lj.Meta})
	}
	j2.Close()

	j3 := mustOpen(t, dir, testOpts())
	defer j3.Close()
	second := j3.Live()
	if len(first) != len(second) {
		t.Fatalf("replay not idempotent: %d live then %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Job != second[i].Job {
			t.Errorf("live[%d] = %s, then %s", i, first[i].Job, second[i].Job)
		}
	}
}

// TestTruncatedFinalRecord: a crash mid-append leaves a torn tail; Open
// salvages everything before it and the journal stays appendable.
func TestTruncatedFinalRecord(t *testing.T) {
	for _, cut := range []int64{1, 5, 11} { // mid-header, mid-header+, mid-payload
		dir := t.TempDir()
		j := mustOpen(t, dir, testOpts())
		mustAppend(t, j, admitted("a"), admitted("b"))
		sizeBefore := j.Stats().Bytes
		mustAppend(t, j, admitted("torn"))
		j.Close()

		seg := filepath.Join(dir, fileName)
		if err := os.Truncate(seg, sizeBefore+cut); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("cut=%d: Open after torn tail: %v", cut, err)
		}
		if got := liveIDs(j2); len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Fatalf("cut=%d: live = %v, want [a b]", cut, got)
		}
		st := j2.Stats()
		if !st.TruncatedTail {
			t.Errorf("cut=%d: TruncatedTail not reported", cut)
		}
		// The journal must keep working where the tail was cut.
		mustAppend(t, j2, admitted("after"))
		j2.Close()
		j3 := mustOpen(t, dir, testOpts())
		if got := liveIDs(j3); len(got) != 3 || got[2] != "after" {
			t.Fatalf("cut=%d: live after reopen = %v, want [a b after]", cut, got)
		}
		j3.Close()
	}
}

// TestCorruptChecksumMidSegment: damage to an acknowledged record —
// anywhere other than the final frame — must fail Open with a clear
// error, never silently drop committed jobs.
func TestCorruptChecksumMidSegment(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())
	mustAppend(t, j, admitted("a"), admitted("b"), admitted("c"))
	j.Close()

	seg := filepath.Join(dir, fileName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the FIRST record's payload.
	length := binary.LittleEndian.Uint32(data)
	data[8+length/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, testOpts())
	if err == nil {
		t.Fatal("Open succeeded over a corrupt mid-segment record")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), fileName+" offset 0") {
		t.Errorf("err %q should name the file and offset", err)
	}
}

// A checksum-damaged FINAL frame is indistinguishable from a torn
// write of that frame's payload — salvaged, not fatal.
func TestCorruptChecksumOnFinalRecordSalvaged(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())
	mustAppend(t, j, admitted("a"), admitted("torn"))
	j.Close()

	seg := filepath.Join(dir, fileName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // damage the last frame's payload tail
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatalf("Open after torn final frame: %v", err)
	}
	defer j2.Close()
	if got := liveIDs(j2); len(got) != 1 || got[0] != "a" {
		t.Fatalf("live = %v, want [a]", got)
	}
	if !j2.Stats().TruncatedTail {
		t.Error("TruncatedTail not reported")
	}
}

// TestCompactionPreservesLiveJobs: compaction rewrites live state, one
// admitted record per live job with its spec and meta, in admit order,
// and the newest job's two records, so Newest survives it.
func TestCompactionPreservesLiveJobs(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())

	mustAppend(t, j, admitted("keep-1"), admitted("keep-2"))
	// A recovery-style re-admit: still one live job, folded by compaction.
	mustAppend(t, j, admitted("keep-1"))
	// Churn settled jobs past wal.MinCompact records: dead ones far
	// outnumber live ones by then.
	var id string
	for i := 0; j.Stats().Compactions == 0; i++ {
		if i > wal.MinCompact {
			t.Fatalf("no compaction after %d churned jobs: %+v", i, j.Stats())
		}
		id = fmt.Sprintf("x%d", i)
		mustAppend(t, j, admitted(id), Record{Op: OpSettled, Job: id})
	}
	// The compaction kept one record per job live at that moment (keep-1's
	// two admits folded into one) and the churned job's admit; its settle
	// followed, before or after.
	st := j.Stats()
	if st.Records > st.LiveJobs+2 {
		t.Errorf("%d records for %d live jobs after compaction", st.Records, st.LiveJobs)
	}

	// Only the compacted log may remain on disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("dir holds %d files after compaction, want 1", len(entries))
	}
	j.Close()

	j2 := mustOpen(t, dir, testOpts())
	defer j2.Close()
	live := j2.Live()
	if got := liveIDs(j2); strings.Join(got, ",") != "keep-1,keep-2" {
		t.Fatalf("live = %v, want keep-1, keep-2", got)
	}
	if got := j2.Stats().Records; got != st.Records {
		t.Errorf("reopened journal holds %d records, want %d", got, st.Records)
	}
	if got := j2.Newest(); got != id {
		t.Errorf("Newest after compaction = %q, want %q", got, id)
	}
	if live[1].Meta["trace_id"] != "t-keep-2" || string(live[1].Spec) != `{"app":"pbzip2"}` {
		t.Errorf("spec or meta lost in compaction: %+v", live[1])
	}
}

// TestUnknownOpFailsClosed: a record whose op is neither admitted,
// settled nor failed, such as the claimed, requeued, evicted and
// abandoned records an earlier format wrote, fails Open with ErrCorrupt
// naming the op, file and offset; Append refuses to write one.
func TestUnknownOpFailsClosed(t *testing.T) {
	for _, op := range []string{"claimed", "requeued", "evicted", "abandoned", ""} {
		dir := t.TempDir()
		j := mustOpen(t, dir, testOpts())
		mustAppend(t, j, admitted("a"))
		if err := j.Append(Record{Op: op, Job: "a"}); err == nil {
			t.Fatalf("Append accepted op %q", op)
		}
		off := j.Stats().Bytes
		j.Close()

		appendRaw(t, filepath.Join(dir, fileName), Record{Op: op, Job: "a"})
		_, err := Open(dir, testOpts())
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("op %q: err = %v, want ErrCorrupt", op, err)
		}
		for _, want := range []string{fmt.Sprintf("%q", op), fmt.Sprintf("%s offset %d", fileName, off)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("op %q: err %q should name %s", op, err, want)
			}
		}
	}
}

// TestAppendConcurrentWithScrape: a /metrics scrape evaluates the
// journal's gauges while appends, and the compaction they trigger, run
// on other goroutines; the race detector watches the shared state.
func TestAppendConcurrentWithScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := testOpts()
	opts.Metrics = reg
	j := mustOpen(t, t.TempDir(), opts)
	defer j.Close()
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range wal.MinCompact / 2 {
				id := fmt.Sprintf("w%d-%d", w, i)
				for _, rec := range []Record{admitted(id), {Op: OpSettled, Job: id}} {
					if err := j.Append(rec); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.Compactions == 0 || st.LiveJobs != 0 {
		t.Fatalf("after %d churned jobs: %+v, want a compaction and nothing live", wal.MinCompact, st)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j := mustOpen(t, t.TempDir(), testOpts())
	j.Close()
	if err := j.Append(admitted("late")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, testOpts())
	defer j.Close()
	mustAppend(t, j, admitted("a"))
	if got := liveIDs(j); len(got) != 1 {
		t.Fatalf("live = %v", got)
	}
}

// TestOpenRefusesSegmentLayout: a dir holding a segment of the
// multi-file layout fails Open naming the segment, and Open changes
// nothing on disk.
func TestOpenRefusesSegmentLayout(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "journal-00000001.wal")
	appendRaw(t, seg, admitted("a"))
	want, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts()); err == nil || !strings.Contains(err.Error(), seg) {
		t.Fatalf("Open over a segment: err = %v, want one naming %s", err, seg)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(seg); len(entries) != 1 || !bytes.Equal(got, want) {
		t.Fatalf("Open changed the dir: %d entries, segment intact %t", len(entries), bytes.Equal(got, want))
	}
}

// FuzzOpenJournal opens a journal whose log holds arbitrary bytes. Open
// must never panic, must either succeed or fail with ErrCorrupt, and
// when it succeeds a second Open of the (possibly salvaged) directory
// must hold the same live jobs and newest job with no torn tail left to
// salvage.
func FuzzOpenJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), fileName)
	appendRaw(f, path, admitted("a"), admitted("b"), Record{Op: OpSettled, Job: "a"}, admitted("c"), Record{Op: OpFailed, Job: "b"})
	log, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3]) // a torn tail
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, testOpts())
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want success or ErrCorrupt", err)
			}
			return
		}
		live, newest := j.Live(), j.Newest()
		j.Close()
		j2, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer j2.Close()
		if !reflect.DeepEqual(j2.Live(), live) || j2.Newest() != newest || j2.Stats().TruncatedTail {
			t.Fatalf("second Open: live %+v, newest %q (torn tail %t), want %+v, %q and no torn tail",
				j2.Live(), j2.Newest(), j2.Stats().TruncatedTail, live, newest)
		}
	})
}
