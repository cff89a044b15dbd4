package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

// Serialization. Two formats are provided:
//
//   - a compact little-endian binary format (the recorder's native output,
//     analogous to the paper's on-disk trace whose loading cost Sec. 6.7
//     explicitly excludes from measurement), and
//   - JSON, for human inspection and tooling.
//
// Both round-trip every field the replayer consumes.

const (
	binMagic   = 0x50455246 // "PERF"
	binVersion = 3
)

// MaxEvents is the largest event count any trace may carry. Event
// indexes are int32 throughout the analysis (CritSec.AcqEv, prefix
// walks, side indexes); a longer trace would silently truncate those
// indexes, so every decoder rejects it up front instead.
const MaxEvents = 1<<31 - 1

func checkEventCount(n uint64) error {
	if n > MaxEvents {
		return fmt.Errorf("trace: %d events exceed the int32 index range (max %d)", n, MaxEvents)
	}
	return nil
}

type jsonTrace struct {
	Trace
	JSONSites []Site `json:"sites"`
}

// WriteJSON writes the trace as indented JSON.
func (tr *Trace) WriteJSON(w io.Writer) error {
	jt := jsonTrace{Trace: *tr}
	if tr.Sites != nil {
		jt.JSONSites = tr.Sites.All()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&jt)
}

// ReadJSON parses a trace previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	tr := jt.Trace
	if err := checkEventCount(uint64(len(tr.Events))); err != nil {
		return nil, err
	}
	tr.Sites = NewSiteTable()
	if len(jt.JSONSites) > 0 {
		tr.Sites.sites = jt.JSONSites
		tr.Sites.rebuildIndex()
	}
	if tr.MemNames == nil {
		tr.MemNames = make(map[memmodel.Addr]string)
	}
	if tr.SpinLocks == nil {
		tr.SpinLocks = make(map[LockID]bool)
	}
	return &tr, nil
}

// binWriter and binReader keep the scratch a fixed-width field passes
// through in the struct: a local array handed to an io interface escapes,
// which cost one heap object per field.
type binWriter struct {
	w   *bufio.Writer
	err error
	buf [8]byte
}

func (b *binWriter) u32(v uint32) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(b.buf[:4], v)
	_, b.err = b.w.Write(b.buf[:4])
}

func (b *binWriter) i64(v int64) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(b.buf[:], uint64(v))
	_, b.err = b.w.Write(b.buf[:])
}

func (b *binWriter) str(s string) {
	b.u32(uint32(len(s)))
	if b.err != nil {
		return
	}
	_, b.err = b.w.WriteString(s)
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

// maxStr bounds string lengths in untrusted input; no recorder-produced
// string (file names, variable names) comes anywhere near it.
const maxStr = 1 << 20

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

func writeSnapshot(b *binWriter, s memmodel.Snapshot) {
	addrs := make([]memmodel.Addr, 0, len(s))
	for a := range s {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	b.u32(uint32(len(addrs)))
	for _, a := range addrs {
		b.u32(uint32(a))
		b.i64(s[a])
	}
}

func readSnapshot(b *binReader) memmodel.Snapshot {
	n := b.u32()
	if b.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	pre := n
	if pre > 65536 {
		pre = 65536 // untrusted count: cap the preallocation
	}
	s := make(memmodel.Snapshot, pre)
	for i := uint32(0); i < n && b.err == nil; i++ {
		a := memmodel.Addr(b.u32())
		s[a] = b.i64()
	}
	return s
}

// WriteBinary writes the trace in the compact binary format.
func (tr *Trace) WriteBinary(w io.Writer) error {
	if err := checkEventCount(uint64(len(tr.Events))); err != nil {
		return err
	}
	b := &binWriter{w: bufio.NewWriter(w)}
	b.u32(binMagic)
	b.u32(binVersion)
	b.str(tr.App)
	b.u32(uint32(tr.NumThreads))
	b.i64(int64(tr.TotalTime))

	sites := tr.Sites.All()
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

	b.u32(uint32(len(tr.Events)))
	for i := range tr.Events {
		e := &tr.Events[i]
		b.u32(uint32(e.Thread))
		flags := uint32(e.Kind)
		if e.Spin {
			flags |= 1 << 8
		}
		flags |= uint32(e.Op) << 9
		b.u32(flags)
		b.u32(uint32(e.Lock))
		b.u32(uint32(e.Addr))
		b.i64(e.Value)
		b.i64(int64(e.Cost))
		b.i64(int64(e.Time))
		b.u32(uint32(e.Site))
		b.u32(uint32(len(e.Locks)))
		for _, l := range e.Locks {
			b.u32(uint32(l))
		}
		b.u32(uint32(len(e.Sources)))
		for _, s := range e.Sources {
			b.u32(uint32(s))
		}
		if e.Kind == KSkip {
			writeSnapshot(b, e.Delta)
		}
	}
	if b.err != nil {
		return fmt.Errorf("trace: write binary: %w", b.err)
	}
	return b.w.Flush()
}

// ReadBinary parses a trace previously written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
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
	presites := nsites
	if presites > 65536 {
		presites = 65536
	}
	sites := make([]Site, 0, presites)
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

	tr.InitMem = readSnapshot(b)
	tr.FinalMem = readSnapshot(b)

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
		// Cap the preallocation: the count is untrusted input, and a
		// hostile prefix must not force a huge allocation before the
		// truncated payload is noticed.
		pre := nev
		if pre > 65536 {
			pre = 65536
		}
		tr.Events = make([]Event, 0, pre)
	}
	for i := uint32(0); i < nev && b.err == nil; i++ {
		var e Event
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
			e.Locks = append(e.Locks, LockID(b.u32()))
		}
		ns := b.u32()
		for j := uint32(0); j < ns && b.err == nil; j++ {
			e.Sources = append(e.Sources, int32(b.u32()))
		}
		if e.Kind == KSkip {
			e.Delta = readSnapshot(b)
		}
		tr.Events = append(tr.Events, e)
	}
	if b.err != nil {
		return nil, fmt.Errorf("trace: read binary: %w", b.err)
	}
	return tr, nil
}
