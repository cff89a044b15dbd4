package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"perfplay/internal/memmodel"
)

// buildRichSample extends buildSample with the features the columnar
// sidecars carry: lockset-acquire events (Locks/Sources), a skip event
// with a delta snapshot, constraints, named memory, spin locks, and
// memory images.
func buildRichSample() *Trace {
	tr := buildSample()
	tr.MemNames[1] = "counter"
	tr.MemNames[2] = "flag"
	tr.SpinLocks[LockID(1)] = true
	tr.InitMem = memmodel.Snapshot{1: 5, 2: 0}
	tr.FinalMem = memmodel.Snapshot{1: 5, 2: 7}
	tr.Constraints = []Constraint{{After: 2, Before: 5}}
	tr.AppendExt(Event{Thread: 0, Kind: KLocksetAcq, Time: 70}, EventExt{Locks: []LockID{1, 2}, Sources: []int32{2, 5}})
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

// TestColumnarAccessors checks the zero-copy field accessors against the
// materialized events, field by field.
func TestColumnarAccessors(t *testing.T) {
	tr := buildRichSample()
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ParseColumnar(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEvents() != len(tr.Events) || c.App() != tr.App || c.NumThreads() != tr.NumThreads {
		t.Fatalf("header mismatch: %d events, app %q, %d threads", c.NumEvents(), c.App(), c.NumThreads())
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		if c.Thread(i) != e.Thread || c.Kind(i) != e.Kind || c.Spin(i) != e.Spin ||
			c.Op(i) != e.Op || c.Lock(i) != e.Lock || c.Addr(i) != e.Addr ||
			c.Value(i) != e.Value || c.Cost(i) != e.Cost || c.Time(i) != e.Time ||
			c.Site(i) != e.Site {
			t.Fatalf("accessor mismatch at event %d: %+v", i, *e)
		}
		want := *e
		want.Ext = 0 // the row carries no sidecar
		if got := c.Event(i); got != want {
			t.Fatalf("Event(%d) = %+v, want %+v", i, got, want)
		}
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

// TestColumnarIndexValidation corrupts each stored side index in turn;
// Trace() must fail closed rather than adopt a lying index.
func TestColumnarIndexValidation(t *testing.T) {
	tr := buildRichSample()
	var buf bytes.Buffer
	if err := tr.WriteColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ParseColumnar(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(mutate func(c *Columnar)) error {
		cc := *c
		cc.perThread = append([][]int32{}, c.perThread...)
		for i := range cc.perThread {
			cc.perThread[i] = append([]int32{}, c.perThread[i]...)
		}
		cc.lockOrder = make(map[LockID][]int32, len(c.lockOrder))
		for l, o := range c.lockOrder {
			cc.lockOrder[l] = append([]int32{}, o...)
		}
		mutate(&cc)
		_, err := cc.Trace()
		return err
	}

	if err := corrupt(func(c *Columnar) { c.perThread[0][0] = c.perThread[1][0] }); err == nil {
		t.Fatal("wrong-thread index entry accepted")
	}
	if err := corrupt(func(c *Columnar) { c.perThread[0] = c.perThread[0][1:] }); err == nil {
		t.Fatal("incomplete per-thread index accepted")
	}
	if err := corrupt(func(c *Columnar) { c.perThread[0][0] = int32(c.n) }); err == nil {
		t.Fatal("out-of-range index entry accepted")
	}
	if err := corrupt(func(c *Columnar) {
		for l, o := range c.lockOrder {
			if len(o) > 1 {
				o[0], o[1] = o[1], o[0]
				c.lockOrder[l] = o
			}
		}
	}); err == nil {
		t.Fatal("out-of-order lock index accepted")
	}
	if err := corrupt(func(c *Columnar) {
		for l, o := range c.lockOrder {
			c.lockOrder[l] = o[:len(o)-1]
		}
	}); err == nil {
		t.Fatal("incomplete lock index accepted")
	}
	if err := corrupt(func(c *Columnar) {}); err != nil {
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
			_, err := ReadBinary(bytes.NewReader(d))
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

// FuzzReadColumnar: arbitrary bytes must never panic the columnar
// parser, and any trace it accepts must re-encode and re-parse to the
// same thing (the corpus canonicalization contract), with DetectFormat
// agreeing about the magic.
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
		tr, err := ReadColumnar(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr == nil {
			t.Fatal("nil trace without error")
		}
		if DetectFormat(data) != FormatColumnar {
			t.Fatal("accepted columnar bytes DetectFormat does not call columnar")
		}
		var buf bytes.Buffer
		if err := tr.WriteColumnar(&buf); err != nil {
			t.Fatalf("re-encode accepted trace: %v", err)
		}
		again, err := ReadColumnar(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse re-encoded trace: %v", err)
		}
		if len(again.Events) != len(tr.Events) {
			t.Fatalf("round trip changed event count %d → %d", len(tr.Events), len(again.Events))
		}
	})
}
