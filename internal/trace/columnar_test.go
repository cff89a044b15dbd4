package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"perfplay/internal/memmodel"
)

// buildRichSample extends buildSample with everything else a recording
// stores: two skip events with delta snapshots (the columnar sidecar),
// named memory, spin locks, and memory images.
func buildRichSample() *Trace {
	tr := buildSample()
	tr.MemNames[1] = "counter"
	tr.MemNames[2] = "flag"
	tr.SpinLocks[LockID(1)] = true
	tr.InitMem = memmodel.Snapshot{1: 5, 2: 0}
	tr.FinalMem = memmodel.Snapshot{1: 5, 2: 7}
	tr.AppendExt(Event{Thread: 1, Kind: KSkip, Cost: 2, Time: 70}, EventExt{Delta: memmodel.Snapshot{1: 6}})
	tr.AppendExt(Event{Thread: 0, Kind: KSkip, Cost: 3, Time: 80}, EventExt{Delta: memmodel.Snapshot{2: 9}})
	tr.Append(Event{Thread: 1, Kind: KCompute, Cost: 11, Time: 90})
	tr.TotalTime = 90
	return tr
}

// canonical reduces a trace to its row-binary encoding, the common
// currency for cross-format equality checks.
func canonical(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatalf("canonical encode: %v", err)
	}
	return buf.Bytes()
}

func TestColumnarRoundTrip(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"sample": buildSample(),
		"rich":   buildRichSample(),
		"empty":  New("empty", 0),
	} {
		t.Run(name, func(t *testing.T) {
			var col bytes.Buffer
			if err := tr.WriteColumnar(&col); err != nil {
				t.Fatal(err)
			}
			got, err := ReadColumnar(bytes.NewReader(col.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonical(t, got), canonical(t, tr)) {
				t.Fatal("columnar round trip is not field-identical to the original")
			}
		})
	}
}

// TestColumnarIndexAdoption: a trace loaded from columnar bytes must
// carry the file's side indexes, and they must equal what Warm computes
// from scratch.
func TestColumnarIndexAdoption(t *testing.T) {
	tr := buildRichSample()
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadColumnar(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.perThread == nil || got.lockOrder == nil {
		t.Fatal("columnar load did not adopt the stored side indexes")
	}
	if !reflect.DeepEqual(got.perThread, tr.PerThread()) {
		t.Fatalf("perThread = %v, want %v", got.perThread, tr.PerThread())
	}
	if !reflect.DeepEqual(got.lockOrder, tr.LockOrder()) {
		t.Fatalf("lockOrder = %v, want %v", got.lockOrder, tr.LockOrder())
	}
}

// TestColumnarSidecarOrder: the sidecars decode only as the writer
// writes them, an empty lockset table and the deltas in ascending event
// order; a lockset entry, a delta table listed out of order or naming
// one event twice is refused, by ParseColumnar and its oracle alike.
func TestColumnarSidecarOrder(t *testing.T) {
	tr := buildRichSample()
	var full bytes.Buffer
	if err := tr.WriteColumnar(&full); err != nil {
		t.Fatal(err)
	}
	var skips []int32
	for i := range tr.Events {
		if tr.Events[i].Kind == KSkip {
			skips = append(skips, int32(i))
		}
	}
	if len(skips) != 2 {
		t.Fatalf("sample has skips %v, want two", skips)
	}
	// Find the sidecar section: after the header and the columns.
	r := &sliceReader{data: full.Bytes()}
	if _, err := readHeader(r, colMagic, colVersion, colEventStride); err != nil {
		t.Fatal(err)
	}
	r.take(len(tr.Events) * colEventStride)
	start := r.off
	if n := r.u32(); n != 0 {
		t.Fatalf("lockset table has %d entries, want none", n)
	}
	for k, n := 0, r.u32(); k < int(n); k++ {
		r.u32()
		r.snapshot()
	}
	if r.err != nil {
		t.Fatal(r.err)
	}

	// sidecars writes a lockset table of nls entries and a delta table of
	// the given skips, each with its own delta.
	sidecars := func(nls int, deltas ...int32) []byte {
		var side bytes.Buffer
		b := &binWriter{w: bufio.NewWriter(&side)}
		b.u32(uint32(nls))
		for k := 0; k < nls; k++ {
			b.u32(uint32(skips[0]))
			b.u32(1)
			b.u32(uint32(AuxLockBase + 1))
			b.u32(0)
		}
		b.u32(uint32(len(deltas)))
		for _, i := range deltas {
			b.u32(uint32(i))
			writeSnapshot(b, tr.Ext(&tr.Events[i]).Delta)
		}
		if err := b.w.Flush(); err != nil {
			t.Fatal(err)
		}
		return append(append(append([]byte{}, full.Bytes()[:start]...), side.Bytes()...), full.Bytes()[r.off:]...)
	}
	if data := sidecars(0, skips...); !bytes.Equal(data, full.Bytes()) {
		t.Fatal("the rebuilt sidecars differ from what WriteColumnar wrote")
	}
	for name, data := range map[string][]byte{
		"lockset entry":     sidecars(1, skips...),
		"deltas descending": sidecars(0, skips[1], skips[0]),
		"delta twice":       sidecars(0, skips[0], skips[0], skips[1]),
	} {
		if _, err := ParseColumnar(data); err == nil {
			t.Errorf("%s: ParseColumnar accepted it", name)
		}
		if _, err := readColumnarRef(data); err == nil {
			t.Errorf("%s: readColumnarRef accepted it", name)
		}
	}
}

func TestColumnarRejectsMalformed(t *testing.T) {
	tr := buildRichSample()
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	badMagic := append([]byte{}, full...)
	badMagic[0] ^= 0xff
	badVersion := append([]byte{}, full...)
	badVersion[4] = 0xEE

	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   badMagic,
		"bad version": badVersion,
	}
	for _, n := range []int{6, len(full) / 4, len(full) / 2, len(full) - 3} {
		cases["truncated"] = full[:n]
		for name, data := range cases {
			if _, err := ReadColumnar(bytes.NewReader(data)); err == nil {
				t.Fatalf("%s (%d bytes) accepted", name, len(data))
			}
		}
	}
}

// TestColumnarIndexValidation writes each side index corrupted in turn;
// ParseColumnar must fail closed rather than adopt a lying index. The
// writer stores whatever the trace's cached indexes hold, so corrupting
// the cache corrupts the file.
func TestColumnarIndexValidation(t *testing.T) {
	parse := func(mutate func(tr *Trace)) error {
		tr := buildRichSample().Warm()
		mutate(tr)
		var buf bytes.Buffer
		if err := tr.WriteColumnar(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ParseColumnar(buf.Bytes())
		return err
	}

	if err := parse(func(tr *Trace) { tr.perThread[0][0] = tr.perThread[1][0] }); err == nil {
		t.Fatal("wrong-thread index entry accepted")
	}
	if err := parse(func(tr *Trace) { tr.perThread[0] = tr.perThread[0][1:] }); err == nil {
		t.Fatal("incomplete per-thread index accepted")
	}
	if err := parse(func(tr *Trace) { tr.perThread[0][0] = int32(len(tr.Events)) }); err == nil {
		t.Fatal("out-of-range index entry accepted")
	}
	if err := parse(func(tr *Trace) {
		for l, o := range tr.lockOrder {
			if len(o) > 1 {
				o[0], o[1] = o[1], o[0]
				tr.lockOrder[l] = o
			}
		}
	}); err == nil {
		t.Fatal("out-of-order lock index accepted")
	}
	if err := parse(func(tr *Trace) {
		for l, o := range tr.lockOrder {
			tr.lockOrder[l] = o[:len(o)-1]
		}
	}); err == nil {
		t.Fatal("incomplete lock index accepted")
	}
	if err := parse(func(tr *Trace) {}); err != nil {
		t.Fatalf("uncorrupted copy rejected: %v", err)
	}
}

// TestEventCountBoundary: all decoders must reject counts past the
// int32 index range with a clear error instead of silently truncating.
func TestEventCountBoundary(t *testing.T) {
	if err := checkEventCount(MaxEvents); err != nil {
		t.Fatalf("count at the boundary rejected: %v", err)
	}
	if err := checkEventCount(MaxEvents + 1); err == nil {
		t.Fatal("count past the boundary accepted")
	} else if !strings.Contains(err.Error(), "int32") {
		t.Fatalf("err = %v", err)
	}

	// A real header whose event count is patched to 2^31: both binary
	// decoders must fail on the count itself, before trying to read
	// 2^31 events' worth of payload. An empty trace ends with a known
	// word layout, so the count's offset is fixed: the row-binary file
	// ends at the count itself, and the columnar file follows it with
	// exactly three zero-count section words (locksets, deltas, locks).
	patch := func(t *testing.T, tailOffset int, write func(*Trace, io.Writer) error, read func([]byte) error) {
		t.Helper()
		tr := New("boundary", 0)
		var buf bytes.Buffer
		if err := write(tr, &buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		idx := len(data) - tailOffset
		if binary.LittleEndian.Uint32(data[idx:]) != 0 {
			t.Fatalf("event-count word not at offset -%d", tailOffset)
		}
		binary.LittleEndian.PutUint32(data[idx:], 1<<31)
		err := read(data)
		if err == nil {
			t.Fatal("2^31-event header accepted")
		}
		if !strings.Contains(err.Error(), "int32") {
			t.Fatalf("err = %v", err)
		}
	}
	t.Run("binary", func(t *testing.T) {
		patch(t, 4, (*Trace).WriteBinary, func(d []byte) error {
			_, err := DecodeBinary(d)
			return err
		})
	})
	t.Run("columnar", func(t *testing.T) {
		patch(t, 16, (*Trace).WriteColumnar, func(d []byte) error {
			_, err := ParseColumnar(d)
			return err
		})
	})
}

func TestDetectFormatColumnar(t *testing.T) {
	tr := buildSample()
	var col bytes.Buffer
	if err := tr.WriteColumnar(&col); err != nil {
		t.Fatal(err)
	}
	if got := DetectFormat(col.Bytes()); got != FormatColumnar {
		t.Fatalf("DetectFormat = %q, want %q", got, FormatColumnar)
	}
	got, err := ReadAny(bytes.NewReader(col.Bytes()))
	if err != nil {
		t.Fatalf("ReadAny on columnar: %v", err)
	}
	if !bytes.Equal(canonical(t, got), canonical(t, tr)) {
		t.Fatal("ReadAny columnar load differs from original")
	}
}

// FuzzReadColumnar: for any bytes, ParseColumnar and the view-based
// reader it replaced agree on whether they are a trace and, if so, on
// the header, every event and extension, and the side indexes adopted;
// DetectFormat calls accepted bytes columnar, and an accepted trace
// re-encodes to bytes that parse back to the same trace (the corpus
// canonicalization contract).
func FuzzReadColumnar(f *testing.F) {
	for _, tr := range []*Trace{buildSample(), buildRichSample(), New("empty", 0)} {
		var buf bytes.Buffer
		if err := tr.WriteColumnar(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x43, 0x4F, 0x4C, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseColumnar(data)
		want, rerr := readColumnarRef(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("ParseColumnar: %v; reference: %v", err, rerr)
		}
		if err != nil {
			return
		}
		if err := sameTrace(got, want); err != nil {
			t.Fatal(err)
		}
		if len(got.perThread) != len(want.perThread) {
			t.Fatalf("per-thread index has %d threads, reference %d", len(got.perThread), len(want.perThread))
		}
		for th := range got.perThread {
			if !slices.Equal(got.perThread[th], want.perThread[th]) {
				t.Fatalf("thread %d index %v, reference %v", th, got.perThread[th], want.perThread[th])
			}
		}
		if !maps.EqualFunc(got.lockOrder, want.lockOrder, slices.Equal) || (got.lockOrder == nil) != (want.lockOrder == nil) {
			t.Fatalf("lock index %v, reference %v", got.lockOrder, want.lockOrder)
		}
		if DetectFormat(data) != FormatColumnar {
			t.Fatal("accepted columnar bytes DetectFormat does not call columnar")
		}
		var buf bytes.Buffer
		if err := got.WriteColumnar(&buf); err != nil {
			t.Fatalf("re-encode accepted trace: %v", err)
		}
		again, err := ParseColumnar(buf.Bytes())
		if err != nil {
			t.Fatalf("re-parse re-encoded trace: %v", err)
		}
		if err := sameTrace(again, got); err != nil {
			t.Fatalf("round trip changed the trace: %v", err)
		}
	})
}
