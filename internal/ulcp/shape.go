package ulcp

import (
	"hash/maphash"
	"slices"

	"perfplay/internal/trace"
)

// maxShapes bounds the shapes a pass gives a row and a column of its
// category table, so the table stays at most 1 MiB. A pair with a shape
// past the bound is classified on every visit.
const maxShapes = 1024

// shape is one section shape: a code region and an access list, every
// address and how it is touched. That is all Algorithm 1 and the class
// memo read of a section, so within one pass a pair's category is a
// function of its two shapes. cs is the first section met with the
// shape, and region the identifier's id for its region.
type shape struct {
	hash   uint64
	cs     *trace.CritSec
	region int32
}

// shapeSet interns a pass's section shapes, numbering them in the order
// they are first met. The table is open-addressed with linear probing
// over shape numbers (plus one; zero is empty), a power of two at most
// half full; list is allocated beside it with room for as many shapes as
// the table admits, so a new shape allocates nothing until the table
// grows. Shapes are compared in full whenever the hash matches.
type shapeSet struct {
	slots []int32
	list  []shape
}

// shapeSeed seeds the region's file name hash. Shapes are numbered in
// the order they are met, so no output depends on it.
var shapeSeed = maphash.MakeSeed()

// hashShape hashes a section's shape: its file name, its lines, then one
// FNV-1a step per access, and hashClass's finaliser.
func hashShape(cs *trace.CritSec) uint64 {
	const prime = 0x100000001b3
	h := maphash.String(shapeSeed, cs.Region.File)
	h = (h ^ uint64(uint32(cs.Region.StartLine))<<32 ^ uint64(uint32(cs.Region.EndLine))) * prime
	for _, a := range cs.Acc {
		h = (h ^ uint64(a.Addr)<<16 ^ uint64(a.Touch)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// sameShape reports whether two sections have one shape.
func sameShape(a, b *trace.CritSec) bool {
	return a.Region == b.Region && slices.Equal(a.Acc, b.Acc)
}

// intern returns the number of cs's shape, and whether cs is the first
// section met with it.
func (s *shapeSet) intern(cs *trace.CritSec) (int32, bool) {
	h := hashShape(cs)
	if 2*(len(s.list)+1) > len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		x := s.slots[i]
		if x == 0 {
			s.list = append(s.list, shape{hash: h, cs: cs})
			s.slots[i] = int32(len(s.list))
			return int32(len(s.list) - 1), true
		}
		if sh := &s.list[x-1]; sh.hash == h && sameShape(sh.cs, cs) {
			return x - 1, false
		}
	}
}

// grow doubles the table (64 slots at first) and gives list room for
// every shape the new table admits.
func (s *shapeSet) grow() {
	s.slots = make([]int32, max(64, 2*len(s.slots)))
	s.list = slices.Grow(s.list, len(s.slots)/2-len(s.list))
	mask := uint64(len(s.slots) - 1)
	for x := range s.list {
		i := s.list[x].hash & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(x + 1)
	}
}
