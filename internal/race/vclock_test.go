package race

import (
	"testing"
	"testing/quick"
)

// refVC is a vector clock over a fixed number of threads: the
// happens-before state of the map-based oracles in ref_test.go.
type refVC []int64

// newRefVC returns a zero clock for n threads.
func newRefVC(n int) refVC { return make(refVC, n) }

// Copy returns an independent copy of v.
func (v refVC) Copy() refVC {
	c := make(refVC, len(v))
	copy(c, v)
	return c
}

// Tick increments the component of thread t.
func (v refVC) Tick(t int32) { v[t]++ }

// At returns the component of thread t.
func (v refVC) At(t int32) int64 { return v[t] }

// Join sets v to the component-wise maximum of v and o.
func (v refVC) Join(o refVC) {
	for i := range o {
		if i >= len(v) {
			break
		}
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

func TestRefVCBasicOps(t *testing.T) {
	a := newRefVC(3)
	a.Tick(0)
	a.Tick(0)
	a.Tick(1)
	if a.At(0) != 2 || a.At(1) != 1 || a.At(2) != 0 {
		t.Fatalf("a = %v", a)
	}
	b := newRefVC(3)
	b.Tick(2)
	b.Join(a)
	if b.At(0) != 2 || b.At(1) != 1 || b.At(2) != 1 {
		t.Fatalf("join result = %v", b)
	}
}

func TestRefVCCopyIndependent(t *testing.T) {
	a := newRefVC(2)
	a.Tick(0)
	c := a.Copy()
	c.Tick(0)
	if a.At(0) != 1 || c.At(0) != 2 {
		t.Fatal("copy is not independent")
	}
}

// Join is the least upper bound: the component-wise maximum.
func TestRefVCJoinQuick(t *testing.T) {
	f := func(xs, ys [4]uint8) bool {
		a, b := newRefVC(4), newRefVC(4)
		for i := 0; i < 4; i++ {
			a[i], b[i] = int64(xs[i]), int64(ys[i])
		}
		j := a.Copy()
		j.Join(b)
		for i := range j {
			if j[i] != max(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
