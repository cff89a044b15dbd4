package memmodel

import (
	"testing"
	"testing/quick"
)

func TestAllocAndAccess(t *testing.T) {
	m := New()
	x := m.Alloc("x", 5)
	y := m.Alloc("y", 0)
	if x == y || x == NoAddr {
		t.Fatal("allocation broken")
	}
	if m.Load(x) != 5 || m.Load(y) != 0 {
		t.Fatal("initial values wrong")
	}
	m.Store(y, 9)
	if m.Load(y) != 9 {
		t.Fatal("store lost")
	}
	if m.Name(x) != "x" {
		t.Fatalf("Name = %q", m.Name(x))
	}
	if m.Name(Addr(999)) == "" {
		t.Fatal("anonymous name empty")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestAllocIdempotentByName(t *testing.T) {
	m := New()
	a := m.Alloc("same", 1)
	b := m.Alloc("same", 2) // existing cell, init ignored
	if a != b {
		t.Fatal("same name must return same cell")
	}
	if m.Load(a) != 1 {
		t.Fatal("realloc must not clobber value")
	}
}

func TestAllocN(t *testing.T) {
	m := New()
	cells := m.AllocN("arr", 4, 7)
	if len(cells) != 4 {
		t.Fatalf("AllocN = %d cells", len(cells))
	}
	for i, c := range cells {
		if m.Load(c) != 7 {
			t.Errorf("cell %d init wrong", i)
		}
	}
	if m.Name(cells[2]) != "arr[2]" {
		t.Errorf("Name = %q", m.Name(cells[2]))
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New()
	x := m.Alloc("x", 1)
	s := m.Snapshot()
	m.Store(x, 42)
	if m.Load(x) != 42 {
		t.Fatal("store lost")
	}
	m.Restore(s)
	if m.Load(x) != 1 {
		t.Fatal("restore failed")
	}
}

func TestSnapshotDiffEqual(t *testing.T) {
	a := Snapshot{1: 5, 2: 0}
	b := Snapshot{1: 5}
	if !a.Equal(b) {
		t.Fatal("zero-valued cells must compare equal to absent cells")
	}
	c := Snapshot{1: 6}
	if a.Equal(c) {
		t.Fatal("different values must not be equal")
	}
	d := a.Diff(c)
	if len(d) != 1 || d[0] != 1 {
		t.Fatalf("Diff = %v", d)
	}
}

// Diff is symmetric in content and empty iff Equal.
func TestDiffQuick(t *testing.T) {
	f := func(xs, ys [6]int8) bool {
		a, b := Snapshot{}, Snapshot{}
		for i, v := range xs {
			if v != 0 {
				a[Addr(i)] = int64(v)
			}
		}
		for i, v := range ys {
			if v != 0 {
				b[Addr(i)] = int64(v)
			}
		}
		dab, dba := a.Diff(b), b.Diff(a)
		if len(dab) != len(dba) {
			return false
		}
		for i := range dab {
			if dab[i] != dba[i] {
				return false
			}
		}
		return a.Equal(b) == (len(dab) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaApply(t *testing.T) {
	m := New()
	x := m.Alloc("x", 1)
	y := m.Alloc("y", 2)
	d := Delta{Before: Snapshot{x: 1, y: 2}, After: Snapshot{x: 10, y: 2}}
	d.Apply(m)
	if m.Load(x) != 10 || m.Load(y) != 2 {
		t.Fatal("Apply wrong")
	}
}
