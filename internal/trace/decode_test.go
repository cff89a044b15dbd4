package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
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

// transformed runs tr through identification and transform.Apply: a
// trace with lockset events and constraints, which no writer stores.
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
// transformation locksets and constraints as well.
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
	recBytes := encode(f, rec, (*trace.Trace).WriteBinary)
	f.Add(recBytes)
	f.Add(encode(f, trace.BuildSample(), (*trace.Trace).WriteBinary))
	f.Add([]byte{})
	f.Add([]byte{0x46, 0x52, 0x45, 0x50, 3, 0, 0, 0})
	patches := unrecorded(f, rec)
	for _, what := range slices.Sorted(maps.Keys(patches)) {
		if strings.HasPrefix(what, trace.FormatBinary+"/") {
			f.Add(patches[what])
		}
	}

	// The first skip, whose delta is the one variable-length payload, cut
	// at each of its 4-byte boundaries (every field starts on one):
	// encoding a prefix of the events finds the offsets.
	first := slices.IndexFunc(rec.Events, func(e trace.Event) bool { return e.Kind == trace.KSkip })
	if first < 0 {
		f.Fatal("the recorded seed has no skip")
	}
	prefix := *rec
	prefix.Events = rec.Events[:first]
	start := len(encode(f, &prefix, (*trace.Trace).WriteBinary))
	prefix.Events = rec.Events[:first+1]
	end := len(encode(f, &prefix, (*trace.Trace).WriteBinary))
	for cut := start; cut <= end; cut += 4 {
		f.Add(recBytes[:cut])
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

// TestEncodingsRoundTripAndKeepTheirBytes: every registered workload's
// recording through each of the three encodings — the decoded trace
// equals the encoded one event by event, its extension indices ascend in
// event order, and the bytes hash to what the commit before the event
// row changed wrote (testdata/encodings_50537f1.json), so no stored
// trace's content address moves.
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
				seen++
			}
		}
	}
	if seen != len(pinned) {
		t.Fatalf("checked %d traces, testdata pins %d", seen, len(pinned))
	}
}

// unrecorded returns rec's bytes in each format patched to carry what no
// recording holds, keyed by format and patch: event 0 with a lockset
// kind, KInvalid, kind 200 or the replayer's private 0xff; event 0 with
// a lock or source list (a lockset table entry in PCOL), or in JSON a
// delta, which only a skip has; one constraint. Every decoder must
// refuse each of them.
func unrecorded(t testing.TB, rec *trace.Trace) map[string][]byte {
	t.Helper()
	if rec.Events[0].Kind == trace.KSkip {
		t.Fatal("event 0 is a skip: the patches assume a fixed-size event")
	}
	le := binary.LittleEndian
	header := *rec
	header.Events = nil
	hdr := len(encode(t, &header, (*trace.Trace).WriteBinary)) // ends with the constraint and event counts
	n := len(rec.Events)
	// with returns a copy of data with word v at off, and extra inserted
	// at ins.
	with := func(data []byte, off int, v uint32, ins int, extra ...uint32) []byte {
		out := slices.Clone(data)
		le.PutUint32(out[off:], v)
		var tail []byte
		for _, w := range extra {
			tail = le.AppendUint32(tail, w)
		}
		return slices.Insert(out, ins, tail...)
	}
	kinds := map[string]trace.Kind{"lockset-acq": trace.KLocksetAcq, "lockset-rel": trace.KLocksetRel, "invalid": trace.KInvalid, "200": 200, "255": 0xff}
	out := map[string][]byte{}
	for name, at := range map[string]int{trace.FormatBinary: hdr + 4, trace.FormatColumnar: hdr + 4*n} {
		data := encode(t, rec, (*trace.Trace).WriteBinary)
		if name == trace.FormatColumnar {
			data = encode(t, rec, (*trace.Trace).WriteColumnar)
		}
		for k, kind := range kinds {
			out[name+"/kind="+k] = with(data, at, le.Uint32(data[at:])&^0xff|uint32(kind), 0)
		}
		out[name+"/constraint"] = with(data, hdr-8, 1, hdr-4, 0, 1)
	}
	bin := encode(t, rec, (*trace.Trace).WriteBinary)
	out["binary/locks"] = with(bin, hdr+44, 1, hdr+48, uint32(trace.AuxLockBase+1))
	out["binary/sources"] = with(bin, hdr+48, 1, hdr+52, 0xffffffff)
	col := encode(t, rec, (*trace.Trace).WriteColumnar)
	locksets := hdr + n*(5*4+3*8) // past the columns
	out["columnar/lockset"] = with(col, locksets, 1, locksets+4, 0, 1, uint32(trace.AuxLockBase+1), 0)

	js := encode(t, rec, (*trace.Trace).WriteJSON)
	patched := func(edit func(doc, ev0 map[string]any)) []byte {
		var doc map[string]any
		dec := json.NewDecoder(bytes.NewReader(js))
		dec.UseNumber()
		if err := dec.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		edit(doc, doc["events"].([]any)[0].(map[string]any))
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for k, kind := range kinds {
		out["json/kind="+k] = patched(func(_, ev0 map[string]any) { ev0["k"] = kind })
	}
	out["json/ls"] = patched(func(_, ev0 map[string]any) { ev0["ls"] = []any{trace.AuxLockBase + 1} })
	out["json/src"] = patched(func(_, ev0 map[string]any) { ev0["src"] = []any{-1} })
	out["json/d"] = patched(func(_, ev0 map[string]any) { ev0["d"] = map[string]any{"7": 9} })
	out["json/constraints"] = patched(func(doc, _ map[string]any) { doc["constraints"] = []any{map[string]any{"a": 0, "b": 1}} })
	return out
}

// TestDecodeRefusesWhatNoRecordingHolds: every patch of unrecorded, on a
// hand-built recording and on a mysql one (×0.05, seed 42), is refused by
// Decode, which hands each format to its own decoder, for what the patch
// put in; the unpatched bytes decode.
func TestDecodeRefusesWhatNoRecordingHolds(t *testing.T) {
	p := workload.MustGet("mysql").Build(workload.Config{Threads: 4, Scale: 0.05, Seed: 42})
	for name, rec := range map[string]*trace.Trace{"skip-and-contend": skipAndContend(), "mysql": sim.Run(p, sim.Config{Seed: 42}).Trace} {
		for _, write := range []func(*trace.Trace, io.Writer) error{(*trace.Trace).WriteBinary, (*trace.Trace).WriteColumnar, (*trace.Trace).WriteJSON} {
			if _, err := trace.Decode(encode(t, rec, write)); err != nil {
				t.Fatalf("%s: the unpatched recording: %v", name, err)
			}
		}
		patches := unrecorded(t, rec)
		if len(patches) != 24 {
			t.Fatalf("%d patches, want 24", len(patches))
		}
		for what, data := range patches {
			got, err := trace.Decode(data)
			switch {
			case err == nil:
				t.Errorf("%s: %s: decoded %d events", name, what, len(got.Events))
			case !strings.Contains(err.Error(), "which no recording holds") && !strings.Contains(err.Error(), "unknown field"):
				t.Errorf("%s: %s: refused for another reason: %v", name, what, err)
			}
		}
	}
}

// TestWritersRefuseWhatNoRecordingHolds: a transformed trace, and a
// recording given a constraint, a lockset or unknown kind, a lock list
// or a delta off a skip, is an error from every writer, which writes
// nothing.
func TestWritersRefuseWhatNoRecordingHolds(t *testing.T) {
	rec := skipAndContend()
	edited := func(edit func(tr *trace.Trace)) *trace.Trace {
		tr := *rec
		tr.Events = slices.Clone(rec.Events)
		tr.Exts = slices.Clone(rec.Exts)
		edit(&tr)
		return &tr
	}
	bad := map[string]*trace.Trace{
		"transformed": transformed(t, rec),
		"constraint":  edited(func(tr *trace.Trace) { tr.Constraints = []trace.Constraint{{After: 0, Before: 1}} }),
		"lock list": edited(func(tr *trace.Trace) {
			tr.Exts = append(tr.Exts, trace.EventExt{Locks: []trace.LockID{trace.AuxLockBase + 1}})
			tr.Events[0].Ext = int32(len(tr.Exts))
		}),
		"delta off a skip": edited(func(tr *trace.Trace) {
			tr.Exts = append(tr.Exts, trace.EventExt{Delta: memmodel.Snapshot{7: 9}})
			tr.Events[0].Ext = int32(len(tr.Exts))
		}),
	}
	for _, k := range []trace.Kind{trace.KLocksetAcq, trace.KLocksetRel, trace.KInvalid, 200, 0xff} {
		bad["kind "+k.String()] = edited(func(tr *trace.Trace) { tr.Events[0].Kind = k })
	}
	for name, tr := range bad {
		for format, write := range map[string]func(*trace.Trace, io.Writer) error{
			trace.FormatBinary: (*trace.Trace).WriteBinary, trace.FormatColumnar: (*trace.Trace).WriteColumnar, trace.FormatJSON: (*trace.Trace).WriteJSON,
		} {
			var buf bytes.Buffer
			if err := write(tr, &buf); err == nil || buf.Len() != 0 {
				t.Errorf("%s: %s: err %v, %d bytes written", name, format, err, buf.Len())
			}
		}
	}
}
