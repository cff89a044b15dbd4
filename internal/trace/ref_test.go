package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

// readBinaryRef is the decoder DecodeBinary replaced — one io.ReadFull per
// field through a bufio.Reader, counts capped and then appended to — kept
// as the oracle FuzzReadBinary holds DecodeBinary against.
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
	tr.NumThreads = int(b.u32())
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

	ncons := b.u32()
	for i := uint32(0); i < ncons && b.err == nil; i++ {
		var c Constraint
		c.After = int32(b.u32())
		c.Before = int32(b.u32())
		tr.Constraints = append(tr.Constraints, c)
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
		nl := b.u32()
		for j := uint32(0); j < nl && b.err == nil; j++ {
			x.Locks = append(x.Locks, LockID(b.u32()))
		}
		ns := b.u32()
		for j := uint32(0); j < ns && b.err == nil; j++ {
			x.Sources = append(x.Sources, int32(b.u32()))
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
