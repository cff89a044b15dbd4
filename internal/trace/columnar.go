package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

// Columnar trace format ("PCOL"). The third on-disk encoding: every
// per-event field lives in its own fixed-stride column, so the event
// array decodes in one pass of fixed-offset loads with no per-event
// branch on variable-length data. The one variable-length payload, a
// skip's delta, lives in a sidecar table keyed by event index, keeping
// the columns truly fixed-stride. The file also
// carries the two side indexes every analysis warms up front —
// per-thread event lists and per-lock acquisition order — so a columnar
// load skips the O(events) index build that Trace.Warm performs for the
// other formats.
//
// Layout (all integers little-endian):
//
//	u32 magic "PCOL"      u32 version
//	metadata: app, threads, total time, sites, memnames, spinlocks,
//	          initial/final snapshots, constraints, u32 nev (writeHeader,
//	          shared with the row-binary format)
//	columns, each contiguous: thread, flags(kind|spin|op), lock, addr,
//	          site (4-byte stride); value, cost, time (8-byte stride)
//	sidecars: locksets (a zero count, kept for byte identity), deltas
//	          (event idx → snapshot, in ascending event order)
//	indexes:  per-thread event lists, per-lock acquisition order
const (
	colMagic   = 0x4C4F4350 // "PCOL"
	colVersion = 1
)

// colEventStride is the total fixed bytes one event occupies across all
// columns: five u32 columns and three i64 columns.
const colEventStride = 5*4 + 3*8

// WriteColumnar writes the trace in the columnar format.
func (tr *Trace) WriteColumnar(w io.Writer) error {
	if err := storable(tr); err != nil {
		return err
	}
	b := &binWriter{w: bufio.NewWriter(w)}
	writeHeader(b, colMagic, colVersion, tr)

	// Columns: one pass over the events per column keeps each column's
	// bytes contiguous on disk.
	for i := range tr.Events {
		b.u32(uint32(tr.Events[i].Thread))
	}
	for i := range tr.Events {
		b.u32(packFlags(&tr.Events[i]))
	}
	for i := range tr.Events {
		b.u32(uint32(tr.Events[i].Lock))
	}
	for i := range tr.Events {
		b.u32(uint32(tr.Events[i].Addr))
	}
	for i := range tr.Events {
		b.u32(uint32(tr.Events[i].Site))
	}
	for i := range tr.Events {
		b.i64(tr.Events[i].Value)
	}
	for i := range tr.Events {
		b.i64(int64(tr.Events[i].Cost))
	}
	for i := range tr.Events {
		b.i64(int64(tr.Events[i].Time))
	}

	// Sidecars: an empty lockset table, then the skip deltas keyed by
	// event index in ascending order.
	var dIdx []int32
	for i := range tr.Events {
		if tr.Events[i].Kind == KSkip {
			dIdx = append(dIdx, int32(i))
		}
	}
	b.u32(0)
	b.u32(uint32(len(dIdx)))
	for _, i := range dIdx {
		b.u32(uint32(i))
		writeSnapshot(b, tr.Ext(&tr.Events[i]).Delta)
	}

	// Side indexes: what Warm would compute, stored so readers don't.
	perThread := tr.PerThread()
	for _, evs := range perThread {
		b.u32(uint32(len(evs)))
		for _, idx := range evs {
			b.u32(uint32(idx))
		}
	}
	lockOrder := tr.LockOrder()
	locks := make([]LockID, 0, len(lockOrder))
	for l := range lockOrder {
		locks = append(locks, l)
	}
	sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
	b.u32(uint32(len(locks)))
	for _, l := range locks {
		b.u32(uint32(l))
		b.u32(uint32(len(lockOrder[l])))
		for _, idx := range lockOrder[l] {
			b.u32(uint32(idx))
		}
	}

	if b.err != nil {
		return fmt.Errorf("trace: write columnar: %w", b.err)
	}
	return b.w.Flush()
}

// sliceReader decodes from an in-memory buffer, handing out views (not
// copies) of the underlying bytes.
type sliceReader struct {
	data []byte
	off  int
	err  error
}

// take returns a view of the next n bytes.
func (r *sliceReader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.off < n {
		r.short(int64(n))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// short records that the next n bytes are not there.
func (r *sliceReader) short(n int64) {
	if r.err == nil {
		r.err = fmt.Errorf("trace: data truncated at offset %d (need %d bytes, have %d)", r.off, n, len(r.data)-r.off)
	}
}

func (r *sliceReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *sliceReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *sliceReader) str() string {
	n := r.u32()
	if r.err != nil || n == 0 {
		return ""
	}
	if n > maxStr {
		r.err = fmt.Errorf("trace: string length %d exceeds limit", n)
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

func (r *sliceReader) snapshot() memmodel.Snapshot {
	n := r.u32()
	if r.err != nil || n == 0 {
		return nil
	}
	pre := n
	if pre > 65536 {
		pre = 65536 // untrusted count: cap the preallocation
	}
	s := make(memmodel.Snapshot, pre)
	for i := uint32(0); i < n && r.err == nil; i++ {
		a := memmodel.Addr(r.u32())
		s[a] = r.i64()
	}
	return s
}

// u32s reads n 32-bit values. The count is untrusted: one the remaining
// bytes cannot back is an error before anything is allocated for it.
func u32s[T ~int32](r *sliceReader, n uint32) []T {
	if n == 0 || r.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(r.data)-r.off)/4 {
		r.short(int64(n) * 4)
		return nil
	}
	out := make([]T, n)
	for i, b := 0, r.take(int(n)*4); i < len(out); i++ {
		out[i] = T(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func (r *sliceReader) sites() []Site {
	n := r.u32()
	sites := make([]Site, 0, min(n, 65536)) // untrusted count: cap the preallocation
	for i := uint32(0); i < n && r.err == nil; i++ {
		var s Site
		s.File = r.str()
		s.Line = int(r.u32())
		s.Func = r.str()
		sites = append(sites, s)
	}
	return sites
}

// ParseColumnar decodes a trace previously written by WriteColumnar. A
// lockset entry, or a delta table out of ascending event order, is an
// error. The stored side indexes are adopted, making Warm a no-op, but
// only after validateIndexes has checked them against the events, so a
// file whose indexes lie fails closed. The trace keeps no reference to
// data.
func ParseColumnar(data []byte) (*Trace, error) {
	r := &sliceReader{data: data}
	tr, err := readHeader(r, colMagic, colVersion, colEventStride)
	if err != nil {
		return nil, err
	}
	n := len(tr.Events)
	if cols := r.take(n * colEventStride); cols != nil {
		u32 := func(col, i int) uint32 { return binary.LittleEndian.Uint32(cols[4*(col*n+i):]) }
		i64 := func(col, i int) int64 { return int64(binary.LittleEndian.Uint64(cols[20*n+8*(col*n+i):])) }
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.Kind, e.Spin, e.Op = unpackFlags(u32(1, i)); !e.Kind.recorded() {
				return nil, fmt.Errorf("trace: read columnar: %w", errKind(i, e.Kind))
			}
			e.Thread, e.Lock, e.Addr, e.Site = int32(u32(0, i)), LockID(u32(2, i)), memmodel.Addr(u32(3, i)), SiteID(u32(4, i))
			e.Value, e.Cost, e.Time = i64(0, i), vtime.Duration(i64(1, i)), vtime.Time(i64(2, i))
		}
	}

	if cnt := r.u32(); r.err == nil && cnt != 0 {
		return nil, fmt.Errorf("trace: %d lockset entries, which no recording holds", cnt)
	}
	next := uint32(0) // the least event index the next delta may name
	for k, cnt := uint32(0), r.u32(); k < cnt && r.err == nil; k++ {
		idx := r.u32()
		if r.err == nil && (idx < next || idx >= uint32(n) || tr.Events[idx].Kind != KSkip) {
			return nil, fmt.Errorf("trace: delta sidecar references event %d, want a skip in [%d,%d)", idx, next, n)
		}
		tr.setExt(int(idx), EventExt{Delta: r.snapshot()})
		next = idx + 1
	}

	perThread := make([][]int32, tr.NumThreads)
	for t := 0; t < tr.NumThreads && r.err == nil; t++ {
		cnt := r.u32()
		if cnt > uint32(n) {
			return nil, fmt.Errorf("trace: thread %d index claims %d of %d events", t, cnt, n)
		}
		perThread[t] = u32s[int32](r, cnt)
	}
	var lockOrder map[LockID][]int32
	nlocks := r.u32()
	if nlocks > 0 && r.err == nil {
		lockOrder = make(map[LockID][]int32, min(nlocks, 65536)) // untrusted count: cap the preallocation
	}
	for k := uint32(0); k < nlocks && r.err == nil; k++ {
		l := LockID(r.u32())
		cnt := r.u32()
		if cnt > uint32(n) {
			return nil, fmt.Errorf("trace: lock %v index claims %d of %d events", l, cnt, n)
		}
		lockOrder[l] = u32s[int32](r, cnt)
	}
	if r.err != nil {
		return nil, fmt.Errorf("trace: read columnar: %w", r.err)
	}
	if err := validateIndexes(tr.Events, perThread, lockOrder); err != nil {
		return nil, err
	}
	tr.perThread, tr.lockOrder = perThread, lockOrder
	return tr, nil
}

// validateIndexes cross-checks stored side indexes against the events:
// every listed event must exist, belong to the claimed thread/lock,
// appear in ascending order, and the lists must be complete (totals match
// the events). This is O(events) — far cheaper than rebuilding the
// indexes — and fails closed: an index the file got wrong would otherwise
// silently corrupt every replay ordering decision downstream.
func validateIndexes(events []Event, perThread [][]int32, lockOrder map[LockID][]int32) error {
	n := len(events)
	total := 0
	for t, evs := range perThread {
		prev := int32(-1)
		for _, idx := range evs {
			if idx < 0 || int(idx) >= n {
				return fmt.Errorf("trace: thread %d index entry %d out of range [0,%d)", t, idx, n)
			}
			if idx <= prev {
				return fmt.Errorf("trace: thread %d index not ascending at event %d", t, idx)
			}
			if events[idx].Thread != int32(t) {
				return fmt.Errorf("trace: thread %d index lists event %d of thread %d", t, idx, events[idx].Thread)
			}
			prev = idx
		}
		total += len(evs)
	}
	if total != n {
		return fmt.Errorf("trace: per-thread index covers %d of %d events", total, n)
	}
	acqs := 0
	for i := range events {
		if events[i].Kind == KLockAcq {
			acqs++
		}
	}
	listed := 0
	for l, order := range lockOrder {
		prev := int32(-1)
		for _, idx := range order {
			if idx < 0 || int(idx) >= n {
				return fmt.Errorf("trace: lock %v index entry %d out of range [0,%d)", l, idx, n)
			}
			if idx <= prev {
				return fmt.Errorf("trace: lock %v index not ascending at event %d", l, idx)
			}
			if e := &events[idx]; e.Kind != KLockAcq || e.Lock != l {
				return fmt.Errorf("trace: lock %v index lists event %d (%v of %v)", l, idx, e.Kind, e.Lock)
			}
			prev = idx
		}
		listed += len(order)
	}
	if listed != acqs {
		return fmt.Errorf("trace: per-lock index covers %d of %d acquisitions", listed, acqs)
	}
	return nil
}

// ReadColumnar is ParseColumnar over everything left in r.
func ReadColumnar(r io.Reader) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read columnar: %w", err)
	}
	return ParseColumnar(data)
}
