package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

// Columnar trace format ("PCOL"). The third on-disk encoding, designed
// for the replay hot path rather than for compactness: every per-event
// field lives in its own fixed-stride column, so a reader can address
// field i of event j by arithmetic alone — no per-event decode, no
// per-event allocation, and a file mapped (or read) into memory is
// directly usable as the backing store of the column views. Rare
// variable-length payloads (lockset membership, skip deltas) live in
// sidecar tables keyed by event index, keeping the columns truly
// fixed-stride. The file also carries the two side indexes every
// analysis warms up front — per-thread event lists and per-lock
// acquisition order — so a columnar load skips the O(events) index
// build that Trace.Warm performs for the other formats.
//
// Layout (all integers little-endian):
//
//	u32 magic "PCOL"      u32 version
//	metadata: app, threads, total time, sites, memnames, spinlocks,
//	          initial/final snapshots, constraints (same primitives as
//	          the row-binary format)
//	u32 nev
//	columns, each contiguous: thread, flags(kind|spin|op), lock, addr,
//	          site (4-byte stride); value, cost, time (8-byte stride)
//	sidecars: locksets (event idx → locks+sources), deltas (event idx →
//	          snapshot)
//	indexes:  per-thread event lists, per-lock acquisition order
const (
	colMagic   = 0x4C4F4350 // "PCOL"
	colVersion = 1
)

// colEventStride is the total fixed bytes one event occupies across all
// columns: five u32 columns and three i64 columns.
const colEventStride = 5*4 + 3*8

// Columnar is a zero-copy view over columnar trace bytes. Accessors
// decode single fields straight out of the raw buffer; nothing is
// materialized until Trace is called. A Columnar and any Trace built
// from it share the underlying buffer only for reads — neither mutates
// it — so both are safe for concurrent readers.
type Columnar struct {
	app        string
	numThreads int
	totalTime  vtime.Duration

	sites       []Site
	memNames    map[memmodel.Addr]string
	spinLocks   map[LockID]bool
	initMem     memmodel.Snapshot
	finalMem    memmodel.Snapshot
	constraints []Constraint

	n int
	// Raw column views into the decoded buffer.
	thread, flags, lock, addr, site []byte // 4-byte stride
	value, cost, time               []byte // 8-byte stride

	locksets map[int32]locksetEntry
	deltas   map[int32]memmodel.Snapshot

	perThread [][]int32
	lockOrder map[LockID][]int32
}

type locksetEntry struct {
	locks   []LockID
	sources []int32
}

// NumEvents reports the event count.
func (c *Columnar) NumEvents() int { return c.n }

// App names the recorded workload.
func (c *Columnar) App() string { return c.app }

// NumThreads reports the recorded thread count.
func (c *Columnar) NumThreads() int { return c.numThreads }

func (c *Columnar) u32At(col []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(col[i*4:])
}

func (c *Columnar) i64At(col []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(col[i*8:]))
}

// Thread returns event i's thread without materializing the event.
func (c *Columnar) Thread(i int) int32 { return int32(c.u32At(c.thread, i)) }

// Kind returns event i's kind.
func (c *Columnar) Kind(i int) Kind { return Kind(c.u32At(c.flags, i) & 0xff) }

// Spin reports event i's spin flag.
func (c *Columnar) Spin(i int) bool { return c.u32At(c.flags, i)&(1<<8) != 0 }

// Op returns event i's write operation.
func (c *Columnar) Op(i int) WriteOp { return WriteOp(c.u32At(c.flags, i) >> 9) }

// Lock returns event i's lock.
func (c *Columnar) Lock(i int) LockID { return LockID(c.u32At(c.lock, i)) }

// Addr returns event i's address.
func (c *Columnar) Addr(i int) memmodel.Addr { return memmodel.Addr(c.u32At(c.addr, i)) }

// Site returns event i's code site.
func (c *Columnar) Site(i int) SiteID { return SiteID(c.u32At(c.site, i)) }

// Value returns event i's value.
func (c *Columnar) Value(i int) int64 { return c.i64At(c.value, i) }

// Cost returns event i's virtual cost.
func (c *Columnar) Cost(i int) vtime.Duration { return vtime.Duration(c.i64At(c.cost, i)) }

// Time returns event i's recorded completion timestamp.
func (c *Columnar) Time(i int) vtime.Time { return vtime.Time(c.i64At(c.time, i)) }

// Event materializes event i's row. Its sidecar payloads are not part of
// the row; Trace attaches them.
func (c *Columnar) Event(i int) Event {
	return Event{
		Thread: c.Thread(i),
		Kind:   c.Kind(i),
		Spin:   c.Spin(i),
		Op:     c.Op(i),
		Lock:   c.Lock(i),
		Addr:   c.Addr(i),
		Value:  c.Value(i),
		Cost:   c.Cost(i),
		Time:   c.Time(i),
		Site:   c.Site(i),
	}
}

// WriteColumnar writes the trace in the columnar format.
func (tr *Trace) WriteColumnar(w io.Writer) error {
	if len(tr.Events) > MaxEvents {
		return fmt.Errorf("trace: %d events exceed the int32 index range", len(tr.Events))
	}
	b := &binWriter{w: bufio.NewWriter(w)}
	b.u32(colMagic)
	b.u32(colVersion)
	b.str(tr.App)
	b.u32(uint32(tr.NumThreads))
	b.i64(int64(tr.TotalTime))

	var sites []Site
	if tr.Sites != nil {
		sites = tr.Sites.All()
	}
	b.u32(uint32(len(sites)))
	for _, s := range sites {
		b.str(s.File)
		b.u32(uint32(s.Line))
		b.str(s.Func)
	}

	names := make([]memmodel.Addr, 0, len(tr.MemNames))
	for a := range tr.MemNames {
		names = append(names, a)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	b.u32(uint32(len(names)))
	for _, a := range names {
		b.u32(uint32(a))
		b.str(tr.MemNames[a])
	}

	spins := make([]LockID, 0, len(tr.SpinLocks))
	for l, v := range tr.SpinLocks {
		if v {
			spins = append(spins, l)
		}
	}
	sort.Slice(spins, func(i, j int) bool { return spins[i] < spins[j] })
	b.u32(uint32(len(spins)))
	for _, l := range spins {
		b.u32(uint32(l))
	}

	writeSnapshot(b, tr.InitMem)
	writeSnapshot(b, tr.FinalMem)

	b.u32(uint32(len(tr.Constraints)))
	for _, c := range tr.Constraints {
		b.u32(uint32(c.After))
		b.u32(uint32(c.Before))
	}

	// Columns: one pass over the events per column keeps each column's
	// bytes contiguous on disk, which is what makes the reader's views
	// fixed-stride slices of one buffer.
	b.u32(uint32(len(tr.Events)))
	for i := range tr.Events {
		b.u32(uint32(tr.Events[i].Thread))
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		flags := uint32(e.Kind)
		if e.Spin {
			flags |= 1 << 8
		}
		flags |= uint32(e.Op) << 9
		b.u32(flags)
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

	// Sidecars: lockset membership and skip deltas, keyed by event index
	// in ascending order.
	var lsIdx, dIdx []int32
	for i := range tr.Events {
		e := &tr.Events[i]
		if x := tr.Ext(e); len(x.Locks) > 0 || len(x.Sources) > 0 {
			lsIdx = append(lsIdx, int32(i))
		}
		if e.Kind == KSkip {
			dIdx = append(dIdx, int32(i))
		}
	}
	b.u32(uint32(len(lsIdx)))
	for _, i := range lsIdx {
		x := tr.Ext(&tr.Events[i])
		b.u32(uint32(i))
		b.u32(uint32(len(x.Locks)))
		for _, l := range x.Locks {
			b.u32(uint32(l))
		}
		b.u32(uint32(len(x.Sources)))
		for _, s := range x.Sources {
			b.u32(uint32(s))
		}
	}
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

func (r *sliceReader) constraints() []Constraint {
	var cons []Constraint
	n := r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var c Constraint
		c.After = int32(r.u32())
		c.Before = int32(r.u32())
		cons = append(cons, c)
	}
	return cons
}

// ParseColumnar builds a zero-copy Columnar view over raw columnar
// bytes. The metadata (sites, snapshots, indexes) is decoded eagerly —
// it is small — while the event columns stay as views into data, so the
// call does no per-event work beyond validating section lengths.
// Callers must not mutate data while the view (or any Trace built from
// it) is alive.
func ParseColumnar(data []byte) (*Columnar, error) {
	r := &sliceReader{data: data}
	if m := r.u32(); r.err == nil && m != colMagic {
		return nil, fmt.Errorf("trace: bad columnar magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != colVersion {
		return nil, fmt.Errorf("trace: unsupported columnar version %d", v)
	}
	c := &Columnar{
		memNames:  make(map[memmodel.Addr]string),
		spinLocks: make(map[LockID]bool),
	}
	c.app = r.str()
	nt := r.u32()
	if r.err == nil && nt > MaxThreads {
		return nil, fmt.Errorf("trace: implausible thread count %d", nt)
	}
	c.numThreads = int(nt)
	c.totalTime = vtime.Duration(r.i64())

	c.sites = r.sites()

	nnames := r.u32()
	for i := uint32(0); i < nnames && r.err == nil; i++ {
		a := memmodel.Addr(r.u32())
		c.memNames[a] = r.str()
	}

	nspin := r.u32()
	for i := uint32(0); i < nspin && r.err == nil; i++ {
		c.spinLocks[LockID(r.u32())] = true
	}

	c.initMem = r.snapshot()
	c.finalMem = r.snapshot()

	c.constraints = r.constraints()

	nev := r.u32()
	if r.err == nil {
		if err := checkEventCount(uint64(nev)); err != nil {
			return nil, err
		}
		// The columns need nev*stride bytes; checking the total up front
		// turns a hostile count into one clear error instead of eight.
		if int64(len(data)-r.off) < int64(nev)*colEventStride {
			return nil, fmt.Errorf("trace: columnar columns truncated (%d events need %d bytes, have %d)",
				nev, int64(nev)*colEventStride, len(data)-r.off)
		}
	}
	c.n = int(nev)
	c.thread = r.take(c.n * 4)
	c.flags = r.take(c.n * 4)
	c.lock = r.take(c.n * 4)
	c.addr = r.take(c.n * 4)
	c.site = r.take(c.n * 4)
	c.value = r.take(c.n * 8)
	c.cost = r.take(c.n * 8)
	c.time = r.take(c.n * 8)

	nls := r.u32()
	if nls > 0 && r.err == nil {
		pre := nls
		if pre > 65536 {
			pre = 65536
		}
		c.locksets = make(map[int32]locksetEntry, pre)
	}
	for i := uint32(0); i < nls && r.err == nil; i++ {
		idx := r.u32()
		if idx >= nev {
			return nil, fmt.Errorf("trace: lockset sidecar references event %d of %d", idx, nev)
		}
		var ls locksetEntry
		ls.locks = u32s[LockID](r, r.u32())
		ls.sources = u32s[int32](r, r.u32())
		c.locksets[int32(idx)] = ls
	}

	nd := r.u32()
	if nd > 0 && r.err == nil {
		pre := nd
		if pre > 65536 {
			pre = 65536
		}
		c.deltas = make(map[int32]memmodel.Snapshot, pre)
	}
	for i := uint32(0); i < nd && r.err == nil; i++ {
		idx := r.u32()
		if idx >= nev {
			return nil, fmt.Errorf("trace: delta sidecar references event %d of %d", idx, nev)
		}
		c.deltas[int32(idx)] = r.snapshot()
	}

	c.perThread = make([][]int32, c.numThreads)
	for t := 0; t < c.numThreads && r.err == nil; t++ {
		cnt := r.u32()
		if cnt > nev {
			return nil, fmt.Errorf("trace: thread %d index claims %d of %d events", t, cnt, nev)
		}
		if cnt == 0 {
			continue
		}
		evs := make([]int32, cnt)
		for j := uint32(0); j < cnt && r.err == nil; j++ {
			evs[j] = int32(r.u32())
		}
		c.perThread[t] = evs
	}

	nlocks := r.u32()
	if nlocks > 0 && r.err == nil {
		pre := nlocks
		if pre > 65536 {
			pre = 65536
		}
		c.lockOrder = make(map[LockID][]int32, pre)
	}
	for i := uint32(0); i < nlocks && r.err == nil; i++ {
		l := LockID(r.u32())
		cnt := r.u32()
		if cnt > nev {
			return nil, fmt.Errorf("trace: lock %v index claims %d of %d events", l, cnt, nev)
		}
		order := make([]int32, cnt)
		for j := uint32(0); j < cnt && r.err == nil; j++ {
			order[j] = int32(r.u32())
		}
		c.lockOrder[l] = order
	}

	if r.err != nil {
		return nil, fmt.Errorf("trace: read columnar: %w", r.err)
	}
	return c, nil
}

// Trace materializes the full *Trace from the view: events are decoded
// in one tight bulk pass over the columns, and the stored side indexes
// — validated against the columns first, so a corrupt file fails closed
// instead of mis-attributing events — are adopted directly, making the
// subsequent Warm a no-op.
func (c *Columnar) Trace() (*Trace, error) {
	tr := &Trace{
		App:         c.app,
		NumThreads:  c.numThreads,
		TotalTime:   c.totalTime,
		Sites:       NewSiteTable(),
		MemNames:    c.memNames,
		SpinLocks:   c.spinLocks,
		InitMem:     c.initMem,
		FinalMem:    c.finalMem,
		Constraints: c.constraints,
	}
	if len(c.sites) > 0 {
		tr.Sites.sites = c.sites
		tr.Sites.rebuildIndex()
	}
	events := make([]Event, c.n)
	for i := range events {
		events[i] = c.Event(i)
	}
	tr.Events = events
	// The sidecars become the extension table in event order, whatever
	// order the file listed them in.
	withExt := make([]int32, 0, len(c.locksets)+len(c.deltas))
	for i := range c.locksets {
		withExt = append(withExt, i)
	}
	for i := range c.deltas {
		if _, both := c.locksets[i]; !both {
			withExt = append(withExt, i)
		}
	}
	slices.Sort(withExt)
	for _, i := range withExt {
		ls := c.locksets[i]
		tr.setExt(int(i), EventExt{Locks: ls.locks, Sources: ls.sources, Delta: c.deltas[i]})
	}
	if err := c.validateIndexes(); err != nil {
		return nil, err
	}
	tr.perThread = c.perThread
	tr.lockOrder = c.lockOrder
	return tr, nil
}

// validateIndexes cross-checks the stored side indexes against the
// columns: every listed event must exist, belong to the claimed
// thread/lock, appear in ascending order, and the lists must be
// complete (totals match the column contents). This is O(events) of
// pure column reads — far cheaper than rebuilding the indexes — and
// fails closed: an index the file got wrong would otherwise silently
// corrupt every replay ordering decision downstream.
func (c *Columnar) validateIndexes() error {
	total := 0
	for t, evs := range c.perThread {
		prev := int32(-1)
		for _, idx := range evs {
			if idx < 0 || int(idx) >= c.n {
				return fmt.Errorf("trace: thread %d index entry %d out of range [0,%d)", t, idx, c.n)
			}
			if idx <= prev {
				return fmt.Errorf("trace: thread %d index not ascending at event %d", t, idx)
			}
			if c.Thread(int(idx)) != int32(t) {
				return fmt.Errorf("trace: thread %d index lists event %d of thread %d", t, idx, c.Thread(int(idx)))
			}
			prev = idx
		}
		total += len(evs)
	}
	if total != c.n {
		return fmt.Errorf("trace: per-thread index covers %d of %d events", total, c.n)
	}
	acqs := 0
	for i := 0; i < c.n; i++ {
		if c.Kind(i) == KLockAcq {
			acqs++
		}
	}
	listed := 0
	for l, order := range c.lockOrder {
		prev := int32(-1)
		for _, idx := range order {
			if idx < 0 || int(idx) >= c.n {
				return fmt.Errorf("trace: lock %v index entry %d out of range [0,%d)", l, idx, c.n)
			}
			if idx <= prev {
				return fmt.Errorf("trace: lock %v index not ascending at event %d", l, idx)
			}
			if c.Kind(int(idx)) != KLockAcq || c.Lock(int(idx)) != l {
				return fmt.Errorf("trace: lock %v index lists event %d (%v of %v)", l, idx, c.Kind(int(idx)), c.Lock(int(idx)))
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

// ReadColumnar parses a columnar trace from a reader (reading it fully
// into memory first; use ParseColumnar directly over mapped or already
// in-memory bytes to keep the load zero-copy).
func ReadColumnar(r io.Reader) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read columnar: %w", err)
	}
	c, err := ParseColumnar(data)
	if err != nil {
		return nil, err
	}
	return c.Trace()
}
