package journal

import (
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

// nextSegment starts a new segment, as a crash between a compaction's
// rename and its deletes, or an older binary's size rotation, leaves
// behind.
func nextSegment(t *testing.T, j *Journal) {
	t.Helper()
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.openSegment(j.activeSeq + 1); err != nil {
		t.Fatal(err)
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

		seg := filepath.Join(dir, segmentName(1))
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

	seg := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the FIRST record's payload.
	length := binary.LittleEndian.Uint32(data)
	data[headerBytes+length/2] ^= 0xFF
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
	if !strings.Contains(err.Error(), segmentName(1)) || !strings.Contains(err.Error(), "offset") {
		t.Errorf("err %q should name the segment and offset", err)
	}
}

// A checksum-damaged FINAL frame is indistinguishable from a torn
// write of that frame's payload — salvaged, not fatal.
func TestCorruptChecksumOnFinalRecordSalvaged(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())
	mustAppend(t, j, admitted("a"), admitted("torn"))
	j.Close()

	seg := filepath.Join(dir, segmentName(1))
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

// Truncation anywhere but the final segment means a whole later segment
// exists past the damage — that is corruption, not a torn tail.
func TestTruncationInNonFinalSegmentFailsClosed(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())
	mustAppend(t, j, admitted("a"))
	nextSegment(t, j)
	mustAppend(t, j, admitted("b"))
	nextSegment(t, j)
	mustAppend(t, j, admitted("c"))
	j.Close()

	// Segment 1 holds record "a"; cut into it.
	seg := filepath.Join(dir, segmentName(1))
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, testOpts())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestCompactionPreservesLiveJobs: compaction rewrites live state, one
// admitted record per live job with its spec and meta, in admit order,
// and deletes every older segment.
func TestCompactionPreservesLiveJobs(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())

	mustAppend(t, j, admitted("keep-1"), admitted("keep-2"))
	// A recovery-style re-admit: still one live job, folded by compaction.
	mustAppend(t, j, admitted("keep-1"))
	nextSegment(t, j)
	// Churn settled jobs past minCompactRecords: the dead ratio is far
	// past compactRatio by then.
	for i := 0; j.Stats().Compactions == 0; i++ {
		if i > minCompactRecords {
			t.Fatalf("no compaction after %d churned jobs: %+v", i, j.Stats())
		}
		id := fmt.Sprintf("x%d", i)
		mustAppend(t, j, admitted(id), Record{Op: OpSettled, Job: id})
	}
	// The compaction kept one record per job live at that moment (keep-1's
	// two admits folded into one); at most one settle followed it.
	st := j.Stats()
	if st.Records > st.LiveJobs+2 {
		t.Errorf("%d records for %d live jobs after compaction", st.Records, st.LiveJobs)
	}

	// Only the compacted segment may remain on disk.
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
	if live[1].Meta["trace_id"] != "t-keep-2" || string(live[1].Spec) != `{"app":"pbzip2"}` {
		t.Errorf("spec or meta lost in compaction: %+v", live[1])
	}
}

// TestUnknownOpFailsClosed: a record whose op is neither admitted,
// settled nor failed, such as the claimed, requeued, evicted and
// abandoned records an earlier format wrote, fails Open with ErrCorrupt
// naming the op, segment and offset; Append refuses to write one.
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

		buf, err := frame(Record{Op: op, Job: "a"})
		if err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, segmentName(1))
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
		f.Close()

		_, err = Open(dir, testOpts())
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("op %q: err = %v, want ErrCorrupt", op, err)
		}
		for _, want := range []string{fmt.Sprintf("%q", op), segmentName(1), fmt.Sprintf("offset %d", off)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("op %q: err %q should name %s", op, err, want)
			}
		}
	}
}

// TestReplayWalksSegmentsInOrder: replay reads every segment in
// sequence order, and appends go to the last one.
func TestReplayWalksSegmentsInOrder(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, testOpts())
	mustAppend(t, j, admitted("a"), admitted("b"))
	nextSegment(t, j)
	mustAppend(t, j, admitted("c"), Record{Op: OpSettled, Job: "a"})
	nextSegment(t, j)
	mustAppend(t, j, admitted("d"))
	j.Close()

	j2 := mustOpen(t, dir, testOpts())
	mustAppend(t, j2, admitted("e"))
	j2.Close()
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 3 {
		t.Fatalf("dir holds %d files (%v), want 3 segments", len(entries), err)
	}
	j3 := mustOpen(t, dir, testOpts())
	defer j3.Close()
	if got := liveIDs(j3); strings.Join(got, ",") != "b,c,d,e" {
		t.Fatalf("live = %v, want [b c d e] in order", got)
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
			for i := range minCompactRecords / 2 {
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
		t.Fatalf("after %d churned jobs: %+v, want a compaction and nothing live", minCompactRecords, st)
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

// FuzzOpenJournal opens a journal whose final segment holds arbitrary
// bytes, after a well-formed first segment. Open must never panic, must
// either succeed or fail with ErrCorrupt, and when it succeeds a second
// Open of the (possibly salvaged) directory must hold the same live
// jobs with no torn tail left to salvage.
func FuzzOpenJournal(f *testing.F) {
	frames := func(recs ...Record) []byte {
		var seg []byte
		for _, rec := range recs {
			buf, err := frame(rec)
			if err != nil {
				f.Fatal(err)
			}
			seg = append(seg, buf...)
		}
		return seg
	}
	first := frames(admitted("a"), admitted("b"))
	seg := frames(admitted("b"), Record{Op: OpSettled, Job: "a"}, admitted("c"), Record{Op: OpFailed, Job: "b"})
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // a torn tail
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for seq, seg := range map[int][]byte{1: first, 2: data} {
			if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := Open(dir, testOpts())
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want success or ErrCorrupt", err)
			}
			return
		}
		live := j.Live()
		j.Close()
		j2, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer j2.Close()
		if !reflect.DeepEqual(j2.Live(), live) || j2.Stats().TruncatedTail {
			t.Fatalf("second Open: live %+v (torn tail %t), want %+v and no torn tail", j2.Live(), j2.Stats().TruncatedTail, live)
		}
	})
}
