package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// collect opens a log of string records at path and returns the
// records it replayed.
func collect(t testing.TB, path string) (*Log, []string, error) {
	t.Helper()
	var got []string
	l, err := Open(path, func(rec string) error {
		got = append(got, rec)
		return nil
	})
	return l, got, err
}

func mustCollect(t testing.TB, path string) (*Log, []string) {
	t.Helper()
	l, got, err := collect(t, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got
}

func records(ss ...string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// frameLen is the bytes rec takes in a log.
func frameLen(rec string) int {
	p, _ := json.Marshal(rec)
	return headerBytes + len(p)
}

// written appends recs to a fresh log and returns its path and bytes.
func written(t testing.TB, recs ...string) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := mustCollect(t, path)
	if err := l.Append(records(recs...)...); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestRoundTrip(t *testing.T) {
	path, _ := written(t, "a", "bb")
	l, _ := mustCollect(t, path)
	if err := l.Append("ccc"); err != nil {
		t.Fatal(err)
	}
	l2, got := mustCollect(t, path)
	size := int64(frameLen("a") + frameLen("bb") + frameLen("ccc"))
	if !slices.Equal(got, []string{"a", "bb", "ccc"}) || l2.Records() != 3 || l2.Size() != size || l2.Truncated() {
		t.Fatalf("replayed %q: %d records, %d bytes, torn %t", got, l2.Records(), l2.Size(), l2.Truncated())
	}
}

// TestTornFinalFrameAtEveryOffset cuts the last frame at every byte, as
// a crash mid-append would, and also damages its last payload byte or
// zero-fills it. Open keeps the frames before it and reports the cut; an
// append then lands where the tail was and survives a reopen.
func TestTornFinalFrameAtEveryOffset(t *testing.T) {
	path, full := written(t, "first", "second", "the torn one")
	last := len(full) - frameLen("the torn one")
	damaged := bytes.Clone(full)
	damaged[len(damaged)-1] ^= 0xff
	zeroed := append(bytes.Clone(full[:last]), make([]byte, len(full)-last)...)
	tails := map[string][]byte{"damaged": damaged, "zero-filled": zeroed}
	for cut := last; cut < len(full); cut++ {
		tails[fmt.Sprintf("cut at %d", cut)] = full[:cut]
	}
	for name, data := range tails {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got := mustCollect(t, path)
		if !slices.Equal(got, []string{"first", "second"}) || l.Truncated() != (len(data) > last) {
			t.Fatalf("%s: replayed %q, torn %t", name, got, l.Truncated())
		}
		if err := l.Append("after"); err != nil {
			t.Fatal(err)
		}
		if l2, got := mustCollect(t, path); !slices.Equal(got, []string{"first", "second", "after"}) || l2.Truncated() {
			t.Fatalf("%s: reopened %q, torn %t", name, got, l2.Truncated())
		}
	}
}

// TestDamageBeforeLastFrameFailsClosed: a damaged checksum, a zero
// length, a record that does not decode or one the owner refuses,
// anywhere but the final frame, is corruption: Open fails with
// ErrCorrupt naming the file and the frame's offset, and writes nothing.
func TestDamageBeforeLastFrameFailsClosed(t *testing.T) {
	path, full := written(t, "first", "second", "third")
	second := frameLen("first")
	for name, damage := range map[string]func([]byte){
		"checksum":    func(b []byte) { b[second+headerBytes] ^= 0xff },
		"zero length": func(b []byte) { copy(b[second:], []byte{0, 0, 0, 0}) },
		"undecodable": func(b []byte) {
			b[second+headerBytes] = '{' // and the checksum to match
			copy(b[second+4:], binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(b[second+headerBytes:second+frameLen("second")])))
		},
	} {
		data := bytes.Clone(full)
		damage(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := collect(t, path)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("x.wal offset %d", second)) {
			t.Fatalf("%s: err = %v, want ErrCorrupt naming x.wal offset %d", name, err, second)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
			t.Fatalf("%s: a failed Open rewrote the log", name)
		}
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, func(rec string) error {
		if rec == "third" {
			return errors.New("refused")
		}
		return nil
	})
	if want := fmt.Sprintf("refused at x.wal offset %d", second+frameLen("second")); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("refused payload: err = %v, want ErrCorrupt with %q", err, want)
	}
}

// TestCrashMidRewrite: a rewrite that died before its rename leaves a
// temp file beside the log. Open removes it and replays the previous
// log intact.
func TestCrashMidRewrite(t *testing.T) {
	path, full := written(t, "a", "b")
	for _, tmp := range []string{path + ".tmp", path + ".tmp123456"} {
		if err := os.WriteFile(tmp, full[:5], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, got := mustCollect(t, path); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("replayed %q", got)
	}
	if tmps, _ := filepath.Glob(path + ".tmp*"); len(tmps) != 0 {
		t.Fatalf("leftover temp files %v", tmps)
	}
}

// TestAppendsAfterRewriteSurvive: Rewrite replaces the log with the
// given state, and later appends land after it.
func TestAppendsAfterRewriteSurvive(t *testing.T) {
	path, _ := written(t, "a", "b", "c")
	l, _ := mustCollect(t, path)
	if err := l.Rewrite(records("live")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append("d"); err != nil {
		t.Fatal(err)
	}
	l2, got := mustCollect(t, path)
	if !slices.Equal(got, []string{"live", "d"}) || l2.Records() != 2 || l2.Size() != l.Size() {
		t.Fatalf("reopened %q, %d records, %d bytes; want [live d], 2, %d", got, l2.Records(), l2.Size(), l.Size())
	}
	if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
		t.Fatalf("dir holds %d files after a rewrite, want 1", len(entries))
	}
}

// TestOpenIntactWritesNothing: opening an intact log keeps its inode,
// mtime and size.
func TestOpenIntactWritesNothing(t *testing.T) {
	path, _ := written(t, "a", "b")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mustCollect(t, path)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !before.ModTime().Equal(after.ModTime()) || before.Size() != after.Size() {
		t.Fatal("opening an intact log wrote it")
	}
}

// TestDue pins the compaction rule: more than max(MinCompact, 2×live)
// records.
func TestDue(t *testing.T) {
	for _, tc := range []struct {
		records, live int
		due           bool
	}{
		{MinCompact, 0, false},
		{MinCompact + 1, 0, true},
		{MinCompact + 1, MinCompact, false},
		{2 * MinCompact, MinCompact, false},
		{2*MinCompact + 1, MinCompact, true},
	} {
		if got := (&Log{records: tc.records}).Due(tc.live); got != tc.due {
			t.Errorf("Due(%d) over %d records = %t, want %t", tc.live, tc.records, got, tc.due)
		}
	}
}

// FuzzOpenLog opens a log of arbitrary bytes. Open never panics and
// either fails with ErrCorrupt or succeeds; then an append lands after
// the records it replayed, and a second Open replays both with no torn
// tail left to cut.
func FuzzOpenLog(f *testing.F) {
	good, err := frames(records("first", "second", "third"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "x.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := collect(t, path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open: %v, want success or ErrCorrupt", err)
			}
			return
		}
		l.NoSync = true
		if err := l.Append("after"); err != nil {
			t.Fatal(err)
		}
		l2, again := mustCollect(t, path)
		if want := append(got, "after"); !slices.Equal(again, want) || l2.Truncated() {
			t.Fatalf("second Open: %q (torn %t), want %q", again, l2.Truncated(), want)
		}
	})
}
