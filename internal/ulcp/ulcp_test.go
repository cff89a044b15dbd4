package ulcp

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
)

// cs hand-builds a critical section that reads and stores (WSet) the
// given addresses.
func cs(reads, writes []memmodel.Addr) *trace.CritSec {
	var raw []trace.Access
	for _, a := range reads {
		raw = append(raw, trace.Access{Addr: a, Touch: trace.TouchRead})
	}
	for _, a := range writes {
		raw = append(raw, trace.Access{Addr: a, Touch: trace.Touch(0).WithOp(trace.WSet)})
	}
	c := &trace.CritSec{}
	c.SetAccesses(nil, raw)
	return c
}

func TestClassifyAlgorithm1(t *testing.T) {
	tests := []struct {
		name   string
		c1, c2 *trace.CritSec
		want   Category
	}{
		{"both empty", cs(nil, nil), cs(nil, nil), NullLock},
		{"first empty", cs(nil, nil), cs([]memmodel.Addr{1}, nil), NullLock},
		{"second empty", cs([]memmodel.Addr{1}, nil), cs(nil, nil), NullLock},
		{"read read same addr", cs([]memmodel.Addr{1}, nil), cs([]memmodel.Addr{1}, nil), ReadRead},
		{"read read different addr", cs([]memmodel.Addr{1}, nil), cs([]memmodel.Addr{2}, nil), ReadRead},
		{"disjoint writes", cs(nil, []memmodel.Addr{1}), cs(nil, []memmodel.Addr{2}), DisjointWrite},
		{"read vs disjoint write", cs([]memmodel.Addr{1}, nil), cs(nil, []memmodel.Addr{2}), DisjointWrite},
		{"write write conflict", cs(nil, []memmodel.Addr{1}), cs(nil, []memmodel.Addr{1}), TLCP},
		{"read write conflict", cs([]memmodel.Addr{1}, nil), cs(nil, []memmodel.Addr{1}), TLCP},
		{"write read conflict", cs(nil, []memmodel.Addr{1}), cs([]memmodel.Addr{1}, nil), TLCP},
	}
	for _, tt := range tests {
		if got := Classify(tt.c1, tt.c2); got != tt.want {
			t.Errorf("%s: Classify = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// TestClassifyQuick: Algorithm 1 is exhaustive and consistent — a pair is
// TLCP iff some address is shared with at least one write.
func TestClassifyQuick(t *testing.T) {
	f := func(r1, w1, r2, w2 uint8) bool {
		mk := func(bits uint8) []memmodel.Addr {
			var out []memmodel.Addr
			for i := 0; i < 4; i++ {
				if bits&(1<<i) != 0 {
					out = append(out, memmodel.Addr(i+1))
				}
			}
			return out
		}
		c1 := cs(mk(r1), mk(w1))
		c2 := cs(mk(r2), mk(w2))
		got := Classify(c1, c2)
		conflict := (r1&w2)|(w1&r2)|(w1&w2) != 0
		// Mask to 4 bits.
		conflict = ((r1&w2)|(w1&r2)|(w1&w2))&0x0f != 0
		switch {
		case c1.Empty() || c2.Empty():
			return got == NullLock
		case w1&0x0f == 0 && w2&0x0f == 0:
			return got == ReadRead
		case conflict:
			return got == TLCP
		default:
			return got == DisjointWrite
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// record builds a small two-thread trace with a given body per thread.
func record(build func(p *sim.Program)) *sim.Result {
	p := sim.NewProgram("t")
	build(p)
	return sim.Run(p, sim.Config{Seed: 7})
}

func TestIdentifyRule1StopsAtFirstTLCP(t *testing.T) {
	// T0 performs one read CS; T1 performs N read CSs then a write CS.
	// RULE 1: T0's scan should classify the reads as RR ULCPs and stop at
	// the write, producing exactly one causal edge from T0's CS.
	rec := record(func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 1)
		s := p.Site("f.c", 1, "r")
		p.AddThread(func(th *sim.Thread) {
			th.Lock(l, s)
			th.Read(x, s)
			th.Unlock(l, s)
		})
		p.AddThread(func(th *sim.Thread) {
			th.Compute(500)
			for i := 0; i < 3; i++ {
				th.Lock(l, s)
				th.Read(x, s)
				th.Unlock(l, s)
				th.Compute(100)
			}
			th.Lock(l, s)
			th.Read(x, s)
			th.Write(x, 99, s)
			th.Unlock(l, s)
		})
	})
	css := rec.Trace.ExtractCS()
	rep := Identify(rec.Trace, css, Options{})
	if rep.Counts[ReadRead] != 3 {
		t.Errorf("read-read = %d, want 3", rep.Counts[ReadRead])
	}
	if rep.Counts[TLCP] != 1 {
		t.Errorf("tlcp = %d, want 1 (scan must stop at first conflict)", rep.Counts[TLCP])
	}
	if len(rep.CausalEdges) != 1 {
		t.Errorf("causal edges = %d, want 1", len(rep.CausalEdges))
	}
}

func TestIdentifyBenignViaReversedReplay(t *testing.T) {
	// Commutative increments from two threads: conflicting but benign.
	rec := record(func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "inc")
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *sim.Thread) {
				th.Compute(100)
				th.Lock(l, s)
				th.Add(x, 1, s)
				th.Unlock(l, s)
			})
		}
	})
	css := rec.Trace.ExtractCS()
	rep := Identify(rec.Trace, css, Options{})
	if rep.Counts[Benign] != 1 {
		t.Fatalf("benign = %d (counts %v), want 1", rep.Counts[Benign], rep.Counts)
	}
	if rep.ReversedReplays == 0 {
		t.Fatal("no reversed replay performed")
	}
}

func TestIdentifyRedundantWriteBenign(t *testing.T) {
	// Both threads store the same constant: redundant write, benign.
	rec := record(func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "store7")
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *sim.Thread) {
				th.Compute(100)
				th.Lock(l, s)
				th.Write(x, 7, s)
				th.Unlock(l, s)
			})
		}
	})
	css := rec.Trace.ExtractCS()
	rep := Identify(rec.Trace, css, Options{})
	if rep.Counts[Benign] != 1 {
		t.Fatalf("benign = %d (counts %v), want 1 for redundant writes", rep.Counts[Benign], rep.Counts)
	}
}

func TestIdentifyOrderSensitiveIsTLCP(t *testing.T) {
	// Distinct stores read later: true contention.
	rec := record(func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 0)
		s := p.Site("f.c", 1, "w")
		for i := 0; i < 2; i++ {
			i := i
			p.AddThread(func(th *sim.Thread) {
				th.Compute(100)
				th.Lock(l, s)
				th.Read(x, s)
				th.Write(x, int64(10+i), s)
				th.Unlock(l, s)
			})
		}
	})
	css := rec.Trace.ExtractCS()
	rep := Identify(rec.Trace, css, Options{})
	if rep.Counts[TLCP] != 1 {
		t.Fatalf("tlcp = %d (counts %v), want 1", rep.Counts[TLCP], rep.Counts)
	}
	if rep.Counts[Benign] != 0 {
		t.Fatalf("benign = %d, want 0 for order-sensitive writes", rep.Counts[Benign])
	}
}

func TestIdentifyScanCap(t *testing.T) {
	// Many read-only CSs on one lock with no conflict at all: the scan cap
	// must bound the pair count and report truncation.
	rec := record(func(p *sim.Program) {
		l := p.NewLock("L")
		x := p.Mem.Alloc("x", 1)
		s := p.Site("f.c", 1, "r")
		for i := 0; i < 2; i++ {
			p.AddThread(func(th *sim.Thread) {
				for j := 0; j < 30; j++ {
					th.Lock(l, s)
					th.Read(x, s)
					th.Unlock(l, s)
					th.Compute(50)
				}
			})
		}
	})
	css := rec.Trace.ExtractCS()
	rep := Identify(rec.Trace, css, Options{maxScanPerThread: 5})
	if rep.Truncated == 0 {
		t.Fatal("expected truncated scans with a tiny cap")
	}
	if rep.Counts[ReadRead] > 2*30*5 {
		t.Fatalf("read-read = %d exceeds cap bound", rep.Counts[ReadRead])
	}
}

func TestNumULCPs(t *testing.T) {
	rep := &Report{Counts: [NumCategories]int{ReadRead: 3, TLCP: 2, NullLock: 1}}
	if got := rep.NumULCPs(); got != 4 {
		t.Errorf("NumULCPs = %d, want 4", got)
	}
}

// TestPairLayout: a pair is a 12-byte row of two critical-section IDs and
// a category byte, with no pointer for the collector to scan, and a
// causal edge is two 4-byte IDs.
func TestPairLayout(t *testing.T) {
	if size := unsafe.Sizeof(Pair{}); size != 12 {
		t.Fatalf("Pair is %d bytes, want 12", size)
	}
	if size := unsafe.Sizeof(Edge{}); size != 8 {
		t.Fatalf("Edge is %d bytes, want 8", size)
	}
	typ := reflect.TypeOf(Pair{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint8:
		default:
			t.Errorf("Pair.%s is a %v: the row must stay pointer-free", f.Name, f.Type.Kind())
		}
	}
}

func TestConflictSigDistinguishesOps(t *testing.T) {
	addC := cs(nil, []memmodel.Addr{1})
	addC.Acc[0].Touch = trace.Touch(0).WithOp(trace.WAdd)
	setC := cs(nil, []memmodel.Addr{1})
	id := newIdentifier(nil, nil, Options{}, nil)
	k1 := string(id.keyOf(addC, addC))
	k2 := string(id.keyOf(addC, setC))
	if k1 == k2 {
		t.Fatal("conflict signatures must distinguish add/add from add/set pairs")
	}

	// The key spells each side's ops in the order the section first
	// applied them: the same four ops in two orders are two classes.
	fwd, rev := cs(nil, []memmodel.Addr{1}), cs(nil, []memmodel.Addr{1})
	for i, op := range []trace.WriteOp{trace.WAdd, trace.WAnd, trace.WOr} {
		fwd.Acc[0].Touch = fwd.Acc[0].Touch.WithOp(op)
		rev.Acc[0].Touch = rev.Acc[0].Touch.WithOp(trace.WOr - trace.WriteOp(i))
	}
	if k := string(id.keyOf(fwd, setC)); k != "<none>|<none>|sa&|:s;" {
		t.Fatalf("key %q, want the ops in first-seen order", k)
	}
	if k := string(id.keyOf(rev, setC)); k != "<none>|<none>|s|&a:s;" {
		t.Fatalf("key %q, want the ops in first-seen order", k)
	}
}

func TestCategoryStrings(t *testing.T) {
	for c, want := range map[Category]string{
		NullLock: "null-lock", ReadRead: "read-read",
		DisjointWrite: "disjoint-write", Benign: "benign", TLCP: "tlcp",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
	if TLCP.IsULCP() {
		t.Error("TLCP must not be a ULCP")
	}
	if !Benign.IsULCP() {
		t.Error("benign must be a ULCP")
	}
}
