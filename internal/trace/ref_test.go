package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

// readBinaryRef is the decoder DecodeBinary replaced — one io.ReadFull per
// field through a bufio.Reader, counts capped and then appended to — kept
// as the oracle FuzzReadBinary holds DecodeBinary against. Like
// DecodeBinary, it refuses what no recording holds: a constraint, a kind
// the recorder does not write, a lock or source list.
func readBinaryRef(r io.Reader) (*Trace, error) {
	b := &binReader{r: bufio.NewReader(r)}
	if m := b.u32(); b.err == nil && m != binMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	if v := b.u32(); b.err == nil && v != binVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	tr := &Trace{
		Sites:     NewSiteTable(),
		MemNames:  make(map[memmodel.Addr]string),
		SpinLocks: make(map[LockID]bool),
	}
	tr.App = b.str()
	nt := b.u32()
	if b.err == nil && nt > MaxThreads {
		return nil, fmt.Errorf("trace: implausible thread count %d", nt)
	}
	tr.NumThreads = int(nt)
	tr.TotalTime = vtime.Duration(b.i64())

	nsites := b.u32()
	sites := make([]Site, 0, min(nsites, 65536))
	for i := uint32(0); i < nsites && b.err == nil; i++ {
		var s Site
		s.File = b.str()
		s.Line = int(b.u32())
		s.Func = b.str()
		sites = append(sites, s)
	}
	if len(sites) > 0 {
		tr.Sites.sites = sites
		tr.Sites.rebuildIndex()
	}

	nnames := b.u32()
	for i := uint32(0); i < nnames && b.err == nil; i++ {
		a := memmodel.Addr(b.u32())
		tr.MemNames[a] = b.str()
	}

	nspin := b.u32()
	for i := uint32(0); i < nspin && b.err == nil; i++ {
		tr.SpinLocks[LockID(b.u32())] = true
	}

	tr.InitMem = b.snapshot()
	tr.FinalMem = b.snapshot()

	if ncons := b.u32(); b.err == nil && ncons != 0 {
		return nil, fmt.Errorf("trace: %d constraints", ncons)
	}

	nev := b.u32()
	if b.err == nil {
		if err := checkEventCount(uint64(nev)); err != nil {
			return nil, err
		}
		tr.Events = make([]Event, 0, min(nev, 65536))
	}
	for i := uint32(0); i < nev && b.err == nil; i++ {
		var e Event
		var x EventExt
		e.Thread = int32(b.u32())
		flags := b.u32()
		e.Kind = Kind(flags & 0xff)
		e.Spin = flags&(1<<8) != 0
		e.Op = WriteOp(flags >> 9)
		e.Lock = LockID(b.u32())
		e.Addr = memmodel.Addr(b.u32())
		e.Value = b.i64()
		e.Cost = vtime.Duration(b.i64())
		e.Time = vtime.Time(b.i64())
		e.Site = SiteID(b.u32())
		nl, ns := b.u32(), b.u32()
		if b.err != nil {
			break
		}
		if nl != 0 || ns != 0 {
			return nil, fmt.Errorf("trace: event %d: %d locks, %d sources", i, nl, ns)
		}
		switch e.Kind {
		case KInvalid, KLocksetAcq, KLocksetRel:
			return nil, fmt.Errorf("trace: event %d: kind %v", i, e.Kind)
		}
		if e.Kind > KBarrier {
			return nil, fmt.Errorf("trace: event %d: kind %v", i, e.Kind)
		}
		if e.Kind == KSkip {
			x.Delta = b.snapshot()
		}
		tr.AppendExt(e, x)
	}
	if b.err != nil {
		return nil, fmt.Errorf("trace: read binary: %w", b.err)
	}
	return tr, nil
}

type binReader struct {
	r   *bufio.Reader
	err error
	buf [8]byte
}

func (b *binReader) u32() uint32 {
	if b.err != nil {
		return 0
	}
	if _, b.err = io.ReadFull(b.r, b.buf[:4]); b.err != nil {
		return 0 // not whatever the scratch held before
	}
	return binary.LittleEndian.Uint32(b.buf[:4])
}

func (b *binReader) i64() int64 {
	if b.err != nil {
		return 0
	}
	if _, b.err = io.ReadFull(b.r, b.buf[:]); b.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b.buf[:]))
}

func (b *binReader) str() string {
	n := b.u32()
	if b.err != nil || n == 0 {
		return ""
	}
	if n > maxStr {
		b.err = fmt.Errorf("trace: string length %d exceeds limit", n)
		return ""
	}
	buf := make([]byte, n)
	_, b.err = io.ReadFull(b.r, buf)
	return string(buf)
}

func (b *binReader) snapshot() memmodel.Snapshot {
	n := b.u32()
	if b.err != nil || n == 0 {
		return nil
	}
	s := make(memmodel.Snapshot, min(n, 65536))
	for i := uint32(0); i < n && b.err == nil; i++ {
		a := memmodel.Addr(b.u32())
		s[a] = b.i64()
	}
	return s
}

// readColumnarRef is the reader ParseColumnar replaced — the header read
// field by field, the columns kept as views into data, the deltas in a
// map keyed by event, the indexes validated against the columns — kept
// as the oracle FuzzReadColumnar holds ParseColumnar against. Like
// ParseColumnar, it returns the trace with the stored indexes adopted,
// and refuses what no recording holds: a constraint, a kind the recorder
// does not write, a lockset entry, and a delta table out of ascending
// event order.
func readColumnarRef(data []byte) (*Trace, error) {
	r := &sliceReader{data: data}
	if m := r.u32(); r.err == nil && m != colMagic {
		return nil, fmt.Errorf("trace: bad columnar magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != colVersion {
		return nil, fmt.Errorf("trace: unsupported columnar version %d", v)
	}
	tr := &Trace{
		Sites:     NewSiteTable(),
		MemNames:  make(map[memmodel.Addr]string),
		SpinLocks: make(map[LockID]bool),
	}
	tr.App = r.str()
	nt := r.u32()
	if r.err == nil && nt > MaxThreads {
		return nil, fmt.Errorf("trace: implausible thread count %d", nt)
	}
	tr.NumThreads = int(nt)
	tr.TotalTime = vtime.Duration(r.i64())
	if sites := r.sites(); len(sites) > 0 {
		tr.Sites.sites = sites
		tr.Sites.rebuildIndex()
	}
	nnames := r.u32()
	for i := uint32(0); i < nnames && r.err == nil; i++ {
		a := memmodel.Addr(r.u32())
		tr.MemNames[a] = r.str()
	}
	nspin := r.u32()
	for i := uint32(0); i < nspin && r.err == nil; i++ {
		tr.SpinLocks[LockID(r.u32())] = true
	}
	tr.InitMem = r.snapshot()
	tr.FinalMem = r.snapshot()
	if ncons := r.u32(); r.err == nil && ncons != 0 {
		return nil, fmt.Errorf("trace: %d constraints", ncons)
	}

	nev := r.u32()
	if r.err == nil {
		if err := checkEventCount(uint64(nev)); err != nil {
			return nil, err
		}
		if int64(len(data)-r.off) < int64(nev)*colEventStride {
			return nil, fmt.Errorf("trace: columnar columns truncated (%d events need %d bytes, have %d)",
				nev, int64(nev)*colEventStride, len(data)-r.off)
		}
	}
	n := int(nev)
	thread, flags, lock, addr, site := r.take(n*4), r.take(n*4), r.take(n*4), r.take(n*4), r.take(n*4)
	value, cost, tm := r.take(n*8), r.take(n*8), r.take(n*8)
	u32At := func(col []byte, i int) uint32 { return binary.LittleEndian.Uint32(col[i*4:]) }
	i64At := func(col []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(col[i*8:])) }
	kindAt := func(i int) Kind { return Kind(u32At(flags, i) & 0xff) }
	if r.err == nil {
		for i := 0; i < n; i++ {
			if k := kindAt(i); k == KInvalid || k == KLocksetAcq || k == KLocksetRel || k > KBarrier {
				return nil, fmt.Errorf("trace: event %d: kind %v", i, k)
			}
		}
	}

	if nls := r.u32(); r.err == nil && nls != 0 {
		return nil, fmt.Errorf("trace: %d lockset entries", nls)
	}
	var deltas map[int32]memmodel.Snapshot
	if nd := r.u32(); r.err == nil {
		deltas = make(map[int32]memmodel.Snapshot, min(nd, 65536))
		prev := int64(-1)
		for i := uint32(0); i < nd && r.err == nil; i++ {
			idx := r.u32()
			if r.err != nil {
				break
			}
			if idx >= nev || int64(idx) <= prev {
				return nil, fmt.Errorf("trace: delta sidecar references event %d after %d, of %d", idx, prev, nev)
			}
			if kindAt(int(idx)) != KSkip {
				return nil, fmt.Errorf("trace: delta sidecar references event %d, a %v, not a skip", idx, kindAt(int(idx)))
			}
			deltas[int32(idx)] = r.snapshot()
			prev = int64(idx)
		}
	}

	perThread := make([][]int32, tr.NumThreads)
	for t := 0; t < tr.NumThreads && r.err == nil; t++ {
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
		perThread[t] = evs
	}
	var lockOrder map[LockID][]int32
	nlocks := r.u32()
	if nlocks > 0 && r.err == nil {
		lockOrder = make(map[LockID][]int32, min(nlocks, 65536))
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
		lockOrder[l] = order
	}
	if r.err != nil {
		return nil, fmt.Errorf("trace: read columnar: %w", r.err)
	}

	tr.Events = make([]Event, n)
	for i := range tr.Events {
		tr.Events[i] = Event{
			Thread: int32(u32At(thread, i)),
			Kind:   kindAt(i),
			Spin:   u32At(flags, i)&(1<<8) != 0,
			Op:     WriteOp(u32At(flags, i) >> 9),
			Lock:   LockID(u32At(lock, i)),
			Addr:   memmodel.Addr(u32At(addr, i)),
			Value:  i64At(value, i),
			Cost:   vtime.Duration(i64At(cost, i)),
			Time:   vtime.Time(i64At(tm, i)),
			Site:   SiteID(u32At(site, i)),
		}
	}
	withExt := make([]int32, 0, len(deltas))
	for i := range deltas {
		withExt = append(withExt, i)
	}
	slices.Sort(withExt)
	for _, i := range withExt {
		tr.setExt(int(i), EventExt{Delta: deltas[i]})
	}

	total := 0
	for t, evs := range perThread {
		prev := int32(-1)
		for _, idx := range evs {
			if idx < 0 || int(idx) >= n || idx <= prev || int32(u32At(thread, int(idx))) != int32(t) {
				return nil, fmt.Errorf("trace: thread %d index entry %d is wrong", t, idx)
			}
			prev = idx
		}
		total += len(evs)
	}
	if total != n {
		return nil, fmt.Errorf("trace: per-thread index covers %d of %d events", total, n)
	}
	acqs, listed := 0, 0
	for i := 0; i < n; i++ {
		if kindAt(i) == KLockAcq {
			acqs++
		}
	}
	for l, order := range lockOrder {
		prev := int32(-1)
		for _, idx := range order {
			if idx < 0 || int(idx) >= n || idx <= prev || kindAt(int(idx)) != KLockAcq || LockID(u32At(lock, int(idx))) != l {
				return nil, fmt.Errorf("trace: lock %v index entry %d is wrong", l, idx)
			}
			prev = idx
		}
		listed += len(order)
	}
	if listed != acqs {
		return nil, fmt.Errorf("trace: per-lock index covers %d of %d acquisitions", listed, acqs)
	}
	tr.perThread, tr.lockOrder = perThread, lockOrder
	return tr, nil
}
