package ulcp

import (
	"fmt"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/workload"
)

// TestClassMemoKeepsCollidingClassesApart forces classes onto one 64-bit
// hash — two signatures, and one signature under swapped regions — and
// checks that each keeps its own verdict, before and after the table
// grows past its first size, beside classes with hashes of their own.
func TestClassMemoKeepsCollidingClassesApart(t *testing.T) {
	const h = 0xfeed
	type class struct {
		r1, r2 int32
		sig    []uint32
		benign bool
	}
	colliding := []class{
		{0, 1, []uint32{1<<16 | 2}, true},
		{0, 1, []uint32{1<<16 | 4}, false},
		{1, 0, []uint32{1<<16 | 2}, false},
		{0, 1, []uint32{1<<16 | 2, 1<<16 | 2}, true},
	}
	var m classMemo
	for i, c := range colliding {
		if _, ok := m.get(h, c.r1, c.r2, c.sig); ok {
			t.Fatalf("class %d found before it was memoised", i)
		}
		m.put(h, c.r1, c.r2, c.sig, c.benign)
	}
	check := func(when string) {
		t.Helper()
		for i, c := range colliding {
			if v, ok := m.get(h, c.r1, c.r2, c.sig); !ok || v != c.benign {
				t.Fatalf("%s: colliding class %d reads (%v, %v), want (%v, true)", when, i, v, ok, c.benign)
			}
		}
	}
	check("before growth")
	const others = 100
	for i := range others {
		sig := []uint32{uint32(i)}
		m.put(hashClass(2, 3, sig), 2, 3, sig, i%3 == 0)
	}
	check("after growth")
	for i := range others {
		sig := []uint32{uint32(i)}
		if v, ok := m.get(hashClass(2, 3, sig), 2, 3, sig); !ok || v != (i%3 == 0) {
			t.Fatalf("class %d reads (%v, %v)", i, v, ok)
		}
	}
	if m.n != len(colliding)+others || 2*m.n > len(m.ents) {
		t.Fatalf("%d classes in %d entries, want %d at most half full", m.n, len(m.ents), len(colliding)+others)
	}
}

// TestKeysBuiltOncePerClass: a run builds pairKey's bytes once per
// conflict class, not once per conflicting pair, whether it replays the
// class or finds it in a shared verdict table. The classes are counted
// by the allocating reference key.
func TestKeysBuiltOncePerClass(t *testing.T) {
	for _, c := range []struct {
		app   string
		scale float64
	}{{"fluidanimate", 0.04}, {"mysql", 0.1}} {
		p := workload.MustGet(c.app).Build(workload.Config{Threads: 4, Scale: c.scale, Seed: 42})
		tr := sim.Run(p, sim.Config{Seed: 42}).Trace
		css := tr.ExtractCS()
		sets := allSetsOf(tr, css)
		table, _ := BuildVerdictTable(tr, css, Options{})
		for _, with := range []*VerdictTable{nil, table} {
			what := fmt.Sprintf("%s x%v, table %t", c.app, c.scale, with != nil)
			id := newIdentifier(tr, css, Options{}, with)
			rep := id.run()
			classes := make(map[string]bool)
			for _, p := range rep.Pairs {
				if p.Cat == TLCP || p.Cat == Benign {
					c1, c2 := css[p.C1], css[p.C2]
					classes[regionPairKey(c1, c2, sets[c1.ID], sets[c2.ID])] = true
				}
			}
			conflicting := rep.Counts[TLCP] + rep.Counts[Benign]
			t.Logf("%s: %d conflicting pairs, %d classes, %d keys built", what, conflicting, len(classes), id.keys)
			if id.keys != len(classes) || id.memo.n != len(classes) {
				t.Errorf("%s: %d keys built and %d classes memoised for %d classes", what, id.keys, id.memo.n, len(classes))
			}
			if conflicting < 10*len(classes) {
				t.Fatalf("%s: %d conflicting pairs over %d classes: the fixture no longer repeats classes", what, conflicting, len(classes))
			}
		}
	}
}
