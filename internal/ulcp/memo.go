package ulcp

import "slices"

// classMemo is a run's exact memo of verdicts per conflict class: two
// interned regions and the conflict signature classify collected, one
// Touch<<16|Touch word per conflicting address. A pair of a class the
// run has already seen costs a hash and one compare here; pairKey's
// bytes are built only the first time a run sees a class.
//
// The table is open-addressed with linear probing over one entry array,
// a power of two at most half full, allocated on the first insert.
// Signatures live in one arena and are compared in full whenever the
// 64-bit hash matches, so a hash collision costs a probe, never a
// verdict.
type classMemo struct {
	ents  []classEnt
	n     int
	arena []uint32
}

// classEnt is one memoised class; its signature is arena[off:end].
type classEnt struct {
	hash         uint64
	r1, r2       int32
	off, end     int32
	full, benign bool
}

// hashClass hashes a conflict class: FNV-1a steps over 32-bit words, then
// a finaliser that spreads the result over the bits the table indexes by.
func hashClass(r1, r2 int32, sig []uint32) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	h = (h ^ uint64(uint32(r1))) * prime
	h = (h ^ uint64(uint32(r2))) * prime
	for _, w := range sig {
		h = (h ^ uint64(w)) * prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// slot returns the class's entry, or the empty entry where it would go.
// The table must not be empty.
func (m *classMemo) slot(h uint64, r1, r2 int32, sig []uint32) *classEnt {
	mask := uint64(len(m.ents) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := &m.ents[i]
		if !e.full || e.hash == h && e.r1 == r1 && e.r2 == r2 && slices.Equal(m.arena[e.off:e.end], sig) {
			return e
		}
	}
}

// get returns the memoised verdict for a class.
func (m *classMemo) get(h uint64, r1, r2 int32, sig []uint32) (benign, ok bool) {
	if m.n == 0 {
		return false, false
	}
	e := m.slot(h, r1, r2, sig)
	return e.benign, e.full
}

// put memoises the verdict of a class get did not find.
func (m *classMemo) put(h uint64, r1, r2 int32, sig []uint32, benign bool) {
	if 2*(m.n+1) > len(m.ents) {
		old := m.ents
		m.ents = make([]classEnt, max(16, 2*len(old)))
		for i := range old {
			if e := &old[i]; e.full {
				*m.slot(e.hash, e.r1, e.r2, m.arena[e.off:e.end]) = *e
			}
		}
	}
	off := int32(len(m.arena))
	m.arena = append(m.arena, sig...)
	*m.slot(h, r1, r2, sig) = classEnt{hash: h, r1: r1, r2: r2, off: off, end: int32(len(m.arena)), full: true, benign: benign}
	m.n++
}
