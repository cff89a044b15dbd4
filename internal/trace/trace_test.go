package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

func TestRegionOverlapMerge(t *testing.T) {
	a := Region{File: "f.c", StartLine: 10, EndLine: 20}
	b := Region{File: "f.c", StartLine: 15, EndLine: 30}
	c := Region{File: "f.c", StartLine: 21, EndLine: 25}
	d := Region{File: "g.c", StartLine: 10, EndLine: 20}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c should not overlap (disjoint lines)")
	}
	if a.Overlaps(d) {
		t.Error("a and d should not overlap (different files)")
	}
	m := a.Merge(b)
	if m.StartLine != 10 || m.EndLine != 30 {
		t.Errorf("merge = %v, want 10-30", m)
	}
	if !a.Merge(Region{}).Overlaps(a) {
		t.Error("merging with empty should keep a")
	}
}

func TestRegionExtend(t *testing.T) {
	var r Region
	r = r.Extend(Site{File: "f.c", Line: 5})
	r = r.Extend(Site{File: "f.c", Line: 9})
	r = r.Extend(Site{File: "f.c", Line: 2})
	if r.StartLine != 2 || r.EndLine != 9 {
		t.Fatalf("region = %v, want f.c:2-9", r)
	}
}

func TestSiteTableIntern(t *testing.T) {
	st := NewSiteTable()
	a := st.Intern(Site{File: "x.c", Line: 1})
	b := st.Intern(Site{File: "x.c", Line: 2})
	c := st.Intern(Site{File: "x.c", Line: 1})
	if a == b {
		t.Error("distinct sites must get distinct IDs")
	}
	if a != c {
		t.Error("identical sites must be interned to one ID")
	}
	if st.At(a).Line != 1 {
		t.Errorf("At(a) = %v", st.At(a))
	}
	if st.At(9999).File != "<unknown>" {
		t.Error("out-of-range ID should resolve to unknown site")
	}
}

func TestLockIDString(t *testing.T) {
	if got := LockID(3).String(); got != "L3" {
		t.Errorf("got %q", got)
	}
	if got := (AuxLockBase + 7).String(); got != "@L7" {
		t.Errorf("got %q", got)
	}
	if !(AuxLockBase + 1).IsAux() || LockID(5).IsAux() {
		t.Error("IsAux misclassifies")
	}
}

// buildSample constructs a small two-thread trace with one lock and two
// critical sections for extraction tests.
func buildSample() *Trace {
	tr := New("sample", 2)
	s1 := tr.Sites.Intern(Site{File: "a.c", Line: 10, Func: "f"})
	s2 := tr.Sites.Intern(Site{File: "a.c", Line: 20, Func: "g"})
	l := LockID(1)
	tr.Append(Event{Thread: 0, Kind: KThreadStart})
	tr.Append(Event{Thread: 1, Kind: KThreadStart})
	tr.Append(Event{Thread: 0, Kind: KLockAcq, Lock: l, Time: 10, Site: s1})
	tr.Append(Event{Thread: 0, Kind: KRead, Addr: 1, Value: 5, Time: 20, Site: s1})
	tr.Append(Event{Thread: 0, Kind: KLockRel, Lock: l, Time: 30, Site: s1})
	tr.Append(Event{Thread: 1, Kind: KLockAcq, Lock: l, Time: 40, Site: s2})
	tr.Append(Event{Thread: 1, Kind: KWrite, Addr: 2, Value: 7, Op: WSet, Time: 50, Site: s2})
	tr.Append(Event{Thread: 1, Kind: KLockRel, Lock: l, Time: 60, Site: s2})
	tr.Append(Event{Thread: 0, Kind: KThreadEnd, Time: 30})
	tr.Append(Event{Thread: 1, Kind: KThreadEnd, Time: 60})
	tr.TotalTime = 60
	return tr
}

func TestExtractCS(t *testing.T) {
	tr := buildSample()
	css := tr.ExtractCS()
	if len(css) != 2 {
		t.Fatalf("extracted %d CSs, want 2", len(css))
	}
	a, b := css[0], css[1]
	if a.Thread != 0 || b.Thread != 1 {
		t.Fatalf("threads = %d,%d", a.Thread, b.Thread)
	}
	if want := []Access{{Addr: 1, Touch: TouchRead}}; !reflect.DeepEqual(a.Acc, want) || a.NumReads != 1 || a.NumWrites != 0 {
		t.Errorf("CS0 accesses = %v, want the read of addr 1 only", a.Acc)
	}
	if want := []Access{{Addr: 2, Touch: Touch(0).WithOp(WSet)}}; !reflect.DeepEqual(b.Acc, want) || b.NumWrites != 1 {
		t.Errorf("CS1 accesses = %v, want the store to addr 2 only", b.Acc)
	}
	if a.SeqInLock != 0 || b.SeqInLock != 1 {
		t.Errorf("seq = %d,%d", a.SeqInLock, b.SeqInLock)
	}
	if a.Region.StartLine != 10 || b.Region.StartLine != 20 {
		t.Errorf("regions = %v,%v", a.Region, b.Region)
	}
	if a.RelEv < 0 || b.RelEv < 0 {
		t.Error("release events not matched")
	}
}

func TestExtractCSNested(t *testing.T) {
	tr := New("nested", 1)
	l1, l2 := LockID(1), LockID(2)
	tr.Append(Event{Thread: 0, Kind: KLockAcq, Lock: l1, Time: 1})
	tr.Append(Event{Thread: 0, Kind: KLockAcq, Lock: l2, Time: 2})
	tr.Append(Event{Thread: 0, Kind: KWrite, Addr: 9, Time: 3})
	tr.Append(Event{Thread: 0, Kind: KLockRel, Lock: l2, Time: 4})
	tr.Append(Event{Thread: 0, Kind: KLockRel, Lock: l1, Time: 5})
	css := tr.ExtractCS()
	if len(css) != 2 {
		t.Fatalf("extracted %d CSs, want 2", len(css))
	}
	for _, cs := range css {
		if len(cs.Acc) != 1 || cs.Acc[0].Addr != 9 || !cs.Acc[0].Touch.Writes() {
			t.Errorf("nested write must attribute to %v, has %v", cs, cs.Acc)
		}
	}
}

func TestValidateCatchesBadNesting(t *testing.T) {
	tr := New("bad", 1)
	tr.Append(Event{Thread: 0, Kind: KLockRel, Lock: 1})
	if err := tr.Validate(); err == nil {
		t.Fatal("release-without-acquire must fail validation")
	}
	tr2 := New("bad2", 1)
	tr2.Append(Event{Thread: 0, Kind: KLockAcq, Lock: 1})
	if err := tr2.Validate(); err == nil {
		t.Fatal("unreleased lock must fail validation")
	}
	tr3 := New("bad3", 1)
	tr3.Append(Event{Thread: 5, Kind: KCompute})
	if err := tr3.Validate(); err == nil {
		t.Fatal("out-of-range thread must fail validation")
	}
}

// TestValidateNamesLowestHeldLock: a thread that ends holding several
// locks is reported by its lowest lock ID, the same on every call.
func TestValidateNamesLowestHeldLock(t *testing.T) {
	tr := New("held", 1)
	for _, l := range []LockID{9, 3, 7, 5, 12, 4} {
		tr.Append(Event{Thread: 0, Kind: KLockAcq, Lock: l})
	}
	for i := 0; i < 50; i++ {
		err := tr.Validate()
		if err == nil || err.Error() != "thread 0 ends holding L3" {
			t.Fatalf("call %d: Validate = %v, want \"thread 0 ends holding L3\"", i, err)
		}
	}
}

// TestImplausibleThreadCountRefused: a header claiming 2^32-1 threads
// fails to decode in every format without allocating for the threads,
// and Validate refuses a trace built with more than MaxThreads.
func TestImplausibleThreadCountRefused(t *testing.T) {
	tr := New("many", 2)
	tr.Append(Event{Thread: 0, Kind: KWrite, Addr: 1, Value: 1})
	tr.Append(Event{Thread: 1, Kind: KRead, Addr: 1})
	claim := func(write func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		// magic, version, then the app name (length, bytes): the thread
		// count follows, in both binary formats.
		off := 12 + len(tr.App)
		if n := binary.LittleEndian.Uint32(b[off:]); n != 2 {
			t.Fatalf("thread count at offset %d reads %d, want 2", off, n)
		}
		binary.LittleEndian.PutUint32(b[off:], math.MaxUint32)
		return b
	}
	var js bytes.Buffer
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{
		"binary":   claim(tr.WriteBinary),
		"columnar": claim(tr.WriteColumnar),
		"json":     bytes.Replace(js.Bytes(), []byte(`"threads": 2`), []byte(`"threads": 4294967295`), 1),
	}
	if bytes.Equal(bodies["json"], js.Bytes()) {
		t.Fatal("JSON encoding has no \"threads\": 2 to replace")
	}
	for format, body := range bodies {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := Decode(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: Decode accepted %d threads", format, got.NumThreads)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: Decode allocated %d bytes refusing it", format, n)
		}
	}
	if err := (&Trace{NumThreads: MaxThreads + 1}).Validate(); err == nil {
		t.Fatal("Validate accepted a thread count past MaxThreads")
	}
}

func TestLockOrderAndIsShared(t *testing.T) {
	tr := buildSample()
	lo := tr.LockOrder()
	if got := lo[1]; len(got) != 2 || got[0] > got[1] {
		t.Fatalf("lock order = %v", got)
	}
	if !tr.Events[3].IsShared() || !tr.Events[6].IsShared() || tr.Events[2].IsShared() {
		t.Fatal("IsShared must hold for the read and the write, not for the acquire")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := buildSample()
	tr.InitMem = memmodel.Snapshot{1: 5}
	tr.FinalMem = memmodel.Snapshot{2: 7}
	tr.MemNames[1] = "x"
	tr.SpinLocks[1] = true
	tr.AppendExt(Event{Thread: 1, Kind: KSkip, Cost: 5, Time: 70}, EventExt{Delta: memmodel.Snapshot{2: 8}})

	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func TestJSONRoundTrip(t *testing.T) {
	tr := buildSample()
	tr.MemNames[1] = "x"
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func assertTraceEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.App != want.App || got.NumThreads != want.NumThreads || got.TotalTime != want.TotalTime {
		t.Fatalf("header mismatch: %s/%d/%v vs %s/%d/%v",
			got.App, got.NumThreads, got.TotalTime, want.App, want.NumThreads, want.TotalTime)
	}
	if err := tracesEqual(want, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Constraints, want.Constraints) {
		t.Fatalf("constraints: got %v, want %v", got.Constraints, want.Constraints)
	}
	if want.Sites.Len() != got.Sites.Len() {
		t.Fatalf("site tables differ in size")
	}
	for i := 0; i < want.Sites.Len(); i++ {
		if want.Sites.At(SiteID(i)) != got.Sites.At(SiteID(i)) {
			t.Fatalf("site %d differs", i)
		}
	}
}

// TestBinaryRoundTripQuick property-tests the binary codec over randomized
// event sequences.
func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New("q", 4)
		kinds := []Kind{KCompute, KLockAcq, KLockRel, KRead, KWrite, KSleep}
		for i := 0; i < int(n); i++ {
			e := Event{
				Thread: int32(rng.Intn(4)),
				Kind:   kinds[rng.Intn(len(kinds))],
				Lock:   LockID(rng.Intn(5)),
				Addr:   memmodel.Addr(rng.Intn(100)),
				Value:  rng.Int63n(1000) - 500,
				Op:     WriteOp(rng.Intn(4)),
				Cost:   vtime.Duration(1 + rng.Int63n(1000)),
				Time:   vtime.Time(rng.Int63n(100000)),
				Site:   SiteID(rng.Intn(3)),
				Spin:   rng.Intn(2) == 0,
			}
			tr.Append(e)
		}
		var buf bytes.Buffer
		if err := tr.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := DecodeBinary(buf.Bytes())
		if err != nil {
			return false
		}
		return tracesEqual(tr, got) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRegionMergeQuick: merge is commutative on overlap and always covers
// both inputs.
func TestRegionMergeQuick(t *testing.T) {
	f := func(a1, a2, b1, b2 uint16) bool {
		ra := Region{File: "f", StartLine: int(min16(a1, a2)), EndLine: int(max16(a1, a2))}
		rb := Region{File: "f", StartLine: int(min16(b1, b2)), EndLine: int(max16(b1, b2))}
		m := ra.Merge(rb)
		if m.StartLine > ra.StartLine || m.EndLine < ra.EndLine {
			return false
		}
		if m.StartLine > rb.StartLine || m.EndLine < rb.EndLine {
			return false
		}
		m2 := rb.Merge(ra)
		return m == m2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min16(a, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b uint16) uint16 {
	if a > b {
		return a
	}
	return b
}

func TestValidateCatchesDanglingIndices(t *testing.T) {
	cons := New("cons", 1)
	cons.Append(Event{Thread: 0, Kind: KCompute})
	cons.Constraints = []Constraint{{After: 99, Before: 0}}
	if err := cons.Validate(); err == nil {
		t.Fatal("constraint past the event count must fail validation")
	}
	src := New("src", 1)
	src.AppendExt(Event{Thread: 0, Kind: KLocksetAcq}, EventExt{Locks: []LockID{AuxLockBase + 1}, Sources: []int32{77}})
	src.AppendExt(Event{Thread: 0, Kind: KLocksetRel}, EventExt{Locks: []LockID{AuxLockBase + 1}})
	if err := src.Validate(); err == nil {
		t.Fatal("lockset source past the event count must fail validation")
	}
	src.Exts[0].Sources[0] = 1 // the set's own release: in range
	if err := src.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []int32{3, -1} {
		src.Events[1].Ext = ext
		if err := src.Validate(); err == nil {
			t.Fatalf("extension index %d of %d must fail validation", ext, len(src.Exts))
		}
	}
	neg := New("neg", -1)
	if err := neg.Validate(); err == nil {
		t.Fatal("negative thread count must fail validation")
	}
}

// TestValidateRefusesUndeclaredKinds: KInvalid and every kind past
// KBarrier fail validation naming the event, so an in-memory trace with
// one fails the record stage as a decoded one fails its decoder; every
// declared kind without lock nesting passes, the lockset kinds included,
// since transform.Apply validates its own output.
func TestValidateRefusesUndeclaredKinds(t *testing.T) {
	for k := 0; k < 256; k++ {
		kind := Kind(k)
		if kind == KLockAcq || kind == KLockRel {
			continue
		}
		tr := New("kind", 1)
		tr.Append(Event{Thread: 0, Kind: kind})
		err := tr.Validate()
		if bad := kind == KInvalid || kind > KBarrier; bad != (err != nil) {
			t.Errorf("kind %v: Validate = %v", kind, err)
		} else if bad && !strings.Contains(err.Error(), "event 0:") {
			t.Errorf("kind %v: %v does not name the event", kind, err)
		}
	}
}

// TestValidateRejectsUnknownWriteOp: every decoder accepts any op byte,
// and identification's memo key has a letter for four of them — two
// threads writing one address under one lock with op 7 used to index out
// of range there. Validate refuses the trace, whichever format carried it.
func TestValidateRejectsUnknownWriteOp(t *testing.T) {
	build := func(op WriteOp) *Trace {
		tr := New("op", 2)
		for th := int32(0); th < 2; th++ {
			tr.Append(Event{Thread: th, Kind: KLockAcq, Lock: 1})
			tr.Append(Event{Thread: th, Kind: KWrite, Addr: 5, Value: 1, Op: op})
			tr.Append(Event{Thread: th, Kind: KLockRel, Lock: 1})
		}
		return tr
	}
	writers := map[string]func(*Trace, io.Writer) error{
		"binary": (*Trace).WriteBinary, "columnar": (*Trace).WriteColumnar, "json": (*Trace).WriteJSON,
	}
	for format, write := range writers {
		for _, tc := range []struct {
			op  WriteOp
			bad bool
		}{{WOr, false}, {WOr + 1, true}, {7, true}, {255, true}} {
			var buf bytes.Buffer
			if err := write(build(tc.op), &buf); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAny(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%s op %d: %v", format, tc.op, err)
			}
			if got.Events[1].Op != tc.op {
				t.Fatalf("%s: op %d decoded as %d", format, tc.op, got.Events[1].Op)
			}
			err = got.Validate()
			if tc.bad && (err == nil || !strings.Contains(err.Error(), "event 1:")) {
				t.Errorf("%s op %d: Validate = %v, want an error naming event 1", format, tc.op, err)
			}
			if !tc.bad && err != nil {
				t.Errorf("%s op %d: %v", format, tc.op, err)
			}
		}
	}
}
