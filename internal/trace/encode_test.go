package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"perfplay/internal/vtime"
)

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := DecodeBinary([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("bad magic accepted")
	} else if !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadBinaryBadVersion(t *testing.T) {
	var buf bytes.Buffer
	tr := New("v", 1)
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xEE // clobber the version word
	if _, err := DecodeBinary(b); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	tr := buildSample()
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{9, len(full) / 2, len(full) - 3} {
		if _, err := DecodeBinary(full[:n]); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
}

func TestReadJSONGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage JSON accepted")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := New("empty", 0)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.App != "empty" || len(got.Events) != 0 {
		t.Fatalf("got %+v", got)
	}
}

// TestBinaryCodecAllocsPerEvent pins the row-binary codec to a fixed
// handful of allocations per call (header tables, the event slice), not
// one per field: the fixed-width scratch lives in the reader and writer.
func TestBinaryCodecAllocsPerEvent(t *testing.T) {
	const n = 10000
	tr := New("allocs", 2)
	s := tr.Sites.Intern(Site{File: "a.c", Line: 10, Func: "f"})
	kinds := []Kind{KLockAcq, KRead, KWrite, KLockRel, KCompute}
	for i := 0; i < n; i++ {
		tr.Append(Event{Thread: int32(i / len(kinds) % 2), Kind: kinds[i%len(kinds)], Lock: 1, Addr: 7,
			Value: int64(i), Cost: 5, Time: vtime.Time(i), Site: s})
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	encode := testing.AllocsPerRun(5, func() {
		if err := tr.WriteBinary(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(5, func() {
		if _, err := DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if encode/n > 0.1 || decode/n > 0.1 {
		t.Fatalf("allocs per event: encode %.4f, decode %.4f, want <= 0.1 each", encode/n, decode/n)
	}
}

// TestEventLayout: the event row is 48 bytes and holds no pointer, so an
// event array is noscan memory and copying one needs no write barrier.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 48 {
		t.Fatalf("Event is %d bytes, want 48", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Event.%s is a %v: the row must stay pointer-free", f.Name, f.Type.Kind())
		}
	}
}

// TestDecodeAllocsIndependentOfSize: decoding a lockset-free trace costs
// the same number of allocations at twice the events — the event array is
// made once at its exact size, nothing is allocated per event.
func TestDecodeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		tr := New("allocs", 2)
		s := tr.Sites.Intern(Site{File: "a.c", Line: 10, Func: "f"})
		kinds := []Kind{KLockAcq, KRead, KWrite, KLockRel, KCompute}
		for i := 0; i < n; i++ {
			tr.Append(Event{Thread: int32(i / len(kinds) % 2), Kind: kinds[i%len(kinds)], Lock: 1, Addr: 7,
				Value: int64(i), Cost: 5, Time: vtime.Time(i), Site: s})
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		return testing.AllocsPerRun(5, func() {
			if got, err := Decode(data); err != nil || len(got.Events) != n {
				t.Fatal(err)
			}
		})
	}
	if one, two := allocs(10000), allocs(20000); one != two {
		t.Fatalf("decode allocations grow with the trace: %.0f at 10000 events, %.0f at 20000", one, two)
	}
}
