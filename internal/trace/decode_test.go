package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

func encode(t testing.TB, tr *trace.Trace, write func(*trace.Trace, io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(tr, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// transformed runs tr through identification and transform.Apply.
func transformed(t testing.TB, tr *trace.Trace) *trace.Trace {
	t.Helper()
	css := tr.ExtractCS()
	res, err := transform.Apply(tr, css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// skipAndContend records two threads that contend on one lock around a
// selectively recorded range: the recording has a KSkip, and its
// transformation locksets as well.
func skipAndContend() *trace.Trace {
	p := sim.NewProgram("skip-and-contend")
	l := p.NewLock("L")
	x, y := p.Mem.Alloc("x", 0), p.Mem.Alloc("y", 0)
	s := p.Site("f.c", 10, "f")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			th.SkipRange(500, func(m *memmodel.Memory) { m.Store(y, m.Load(y)+int64(th.ID())+1) })
			for k := 0; k < 3; k++ {
				th.Lock(l, s)
				th.Write(x, th.Read(x, s)+1, s)
				th.Unlock(l, s)
				th.Compute(100)
			}
		})
	}
	return sim.Run(p, sim.Config{Seed: 3}).Trace
}

// FuzzReadBinary: for any bytes, DecodeBinary and the field-at-a-time
// decoder it replaced agree on whether they are a trace and, if so, on
// the header and on every event's fixed fields and extension contents.
func FuzzReadBinary(f *testing.F) {
	rec := skipAndContend()
	ls := transformed(f, rec)
	recBytes, lsBytes := encode(f, rec, (*trace.Trace).WriteBinary), encode(f, ls, (*trace.Trace).WriteBinary)
	f.Add(recBytes)
	f.Add(lsBytes)
	f.Add(encode(f, trace.BuildSample(), (*trace.Trace).WriteBinary))
	f.Add([]byte{})
	f.Add([]byte{0x46, 0x52, 0x45, 0x50, 3, 0, 0, 0})

	// The first lockset event cut at each of its 4-byte boundaries (every
	// field starts on one): the header is as long whatever the event
	// count, so encoding a prefix of the events finds the offsets.
	first := -1
	for i := range ls.Events {
		if ls.Events[i].Kind == trace.KLocksetAcq {
			first = i
			break
		}
	}
	if first < 0 {
		f.Fatal("the transformed seed has no lockset")
	}
	prefix := *ls
	prefix.Events = ls.Events[:first]
	start := len(encode(f, &prefix, (*trace.Trace).WriteBinary))
	prefix.Events = ls.Events[:first+1]
	end := len(encode(f, &prefix, (*trace.Trace).WriteBinary))
	for cut := start; cut <= end; cut += 4 {
		f.Add(lsBytes[:cut])
	}

	// A header that declares 2^31-1 events over 60 bytes of them.
	huge := encode(f, trace.New("huge", 1), (*trace.Trace).WriteBinary)
	copy(huge[len(huge)-4:], []byte{0xff, 0xff, 0xff, 0x7f})
	f.Add(append(huge, make([]byte, 60)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.DecodeBinary(data)
		want, rerr := trace.ReadBinaryRef(bytes.NewReader(data))
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeBinary: %v; reference: %v", err, rerr)
		}
		if err != nil {
			return
		}
		if err := trace.SameTrace(got, want); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEncodingsRoundTripAndKeepTheirBytes: every registered workload,
// recorded and transformed, through each of the three encodings — the
// decoded trace equals the encoded one event by event, its extension
// indices ascend in event order, and the bytes hash to what the commit
// before the event row changed wrote (testdata/encodings_50537f1.json),
// so no stored trace's content address moves.
func TestEncodingsRoundTripAndKeepTheirBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/encodings_50537f1.json")
	if err != nil {
		t.Fatal(err)
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	encodings := map[string]func(*trace.Trace, io.Writer) error{
		trace.FormatBinary:   (*trace.Trace).WriteBinary,
		trace.FormatColumnar: (*trace.Trace).WriteColumnar,
		trace.FormatJSON:     (*trace.Trace).WriteJSON,
	}
	check := func(what string, tr *trace.Trace) {
		for format, write := range encodings {
			data := encode(t, tr, write)
			sum := sha256.Sum256(data)
			if got, want := hex.EncodeToString(sum[:]), pinned[what][format]; got != want {
				t.Errorf("%s: %s bytes hash to %s, the parent commit wrote %s", what, format, got, want)
			}
			back, err := trace.Decode(data)
			if err != nil {
				t.Fatalf("%s: %s: %v", what, format, err)
			}
			if err := trace.TracesEqual(tr, back); err != nil {
				t.Fatalf("%s: %s round trip: %v", what, format, err)
			}
			next := int32(1)
			for i := range back.Events {
				if ext := back.Events[i].Ext; ext != 0 {
					if ext != next {
						t.Fatalf("%s: %s: event %d has extension %d, want %d (ascending in event order)", what, format, i, ext, next)
					}
					next++
				}
			}
			if int(next-1) != len(back.Exts) {
				t.Fatalf("%s: %s: %d extensions, %d referenced", what, format, len(back.Exts), next-1)
			}
		}
	}
	seen := 0
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				what := fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed)
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.1, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				check(what+"/recorded", tr)
				check(what+"/transformed", transformed(t, tr))
				seen += 2
			}
		}
	}
	if seen != len(pinned) {
		t.Fatalf("checked %d traces, testdata pins %d", seen, len(pinned))
	}
}
