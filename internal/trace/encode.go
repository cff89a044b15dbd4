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

// Serialization. This file holds two of the three formats (columnar.go
// holds the third) and the primitives the two binary ones share:
//
//   - a compact little-endian binary format (the recorder's native output,
//     analogous to the paper's on-disk trace whose loading cost Sec. 6.7
//     explicitly excludes from measurement), and
//   - JSON, for human inspection and tooling.
//
// All three store a recording and nothing else (see storable); where the
// binary formats stored more, they keep a zero count, so no recording's
// bytes moved.

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

// errKind refuses event i, whose kind k no recording holds.
func errKind(i int, k Kind) error {
	return fmt.Errorf("event %d has kind %v, which no recording holds", i, k)
}

// storable refuses, before a writer writes a byte, what the recorder
// never writes: constraints, lockset members, a delta off a skip, a kind
// it has no use for. Every decoder refuses the same in bytes.
func storable(tr *Trace) error {
	if err := checkEventCount(uint64(len(tr.Events))); err != nil {
		return err
	}
	if len(tr.Constraints) > 0 {
		return fmt.Errorf("trace: %d constraints, which no recording holds", len(tr.Constraints))
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		if !e.Kind.recorded() {
			return fmt.Errorf("trace: %w", errKind(i, e.Kind))
		}
		if x := tr.Ext(e); len(x.Locks) > 0 || len(x.Sources) > 0 || e.Kind != KSkip && len(x.Delta) > 0 {
			return fmt.Errorf("trace: event %d, a %v, carries a payload no recording holds", i, e.Kind)
		}
	}
	return nil
}

// jsonEvent and jsonTrace are the JSON shape of a trace: an event is
// written with its delta inline, and the keys keep the order files
// already stored (and content-addressed) were written in.
type jsonEvent struct {
	Thread int32             `json:"t"`
	Kind   Kind              `json:"k"`
	Lock   LockID            `json:"l,omitempty"`
	Addr   memmodel.Addr     `json:"a,omitempty"`
	Value  int64             `json:"v,omitempty"`
	Op     WriteOp           `json:"op,omitempty"`
	Cost   vtime.Duration    `json:"c,omitempty"`
	Time   vtime.Time        `json:"tm"`
	Site   SiteID            `json:"s,omitempty"`
	Spin   bool              `json:"sp,omitempty"`
	Delta  memmodel.Snapshot `json:"d,omitempty"`
}

type jsonTrace struct {
	App        string                   `json:"app"`
	NumThreads int                      `json:"threads"`
	Events     []jsonEvent              `json:"events"`
	MemNames   map[memmodel.Addr]string `json:"memnames,omitempty"`
	InitMem    memmodel.Snapshot        `json:"initmem,omitempty"`
	FinalMem   memmodel.Snapshot        `json:"finalmem,omitempty"`
	TotalTime  vtime.Duration           `json:"total"`
	SpinLocks  map[LockID]bool          `json:"spinlocks,omitempty"`
	Sites      []Site                   `json:"sites"`
}

// WriteJSON writes the trace as indented JSON.
func (tr *Trace) WriteJSON(w io.Writer) error {
	if err := storable(tr); err != nil {
		return err
	}
	jt := jsonTrace{
		App:        tr.App,
		NumThreads: tr.NumThreads,
		MemNames:   tr.MemNames,
		InitMem:    tr.InitMem,
		FinalMem:   tr.FinalMem,
		TotalTime:  tr.TotalTime,
		SpinLocks:  tr.SpinLocks,
	}
	if tr.Events != nil {
		jt.Events = make([]jsonEvent, len(tr.Events))
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		jt.Events[i] = jsonEvent{
			Thread: e.Thread, Kind: e.Kind, Lock: e.Lock, Addr: e.Addr, Value: e.Value, Op: e.Op,
			Cost: e.Cost, Time: e.Time, Site: e.Site, Spin: e.Spin, Delta: tr.Ext(e).Delta,
		}
	}
	if tr.Sites != nil {
		jt.Sites = tr.Sites.All()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&jt)
}

// ReadJSON parses a trace previously written by WriteJSON. A key
// WriteJSON does not write is an error.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	if err := checkEventCount(uint64(len(jt.Events))); err != nil {
		return nil, err
	}
	if jt.NumThreads < 0 || jt.NumThreads > MaxThreads {
		return nil, fmt.Errorf("trace: implausible thread count %d", jt.NumThreads)
	}
	tr := &Trace{
		App:        jt.App,
		NumThreads: jt.NumThreads,
		Sites:      NewSiteTable(),
		MemNames:   jt.MemNames,
		InitMem:    jt.InitMem,
		FinalMem:   jt.FinalMem,
		TotalTime:  jt.TotalTime,
		SpinLocks:  jt.SpinLocks,
	}
	if jt.Events != nil {
		tr.Events = make([]Event, len(jt.Events))
	}
	for i := range jt.Events {
		je := &jt.Events[i]
		if !je.Kind.recorded() {
			return nil, fmt.Errorf("trace: decode json: %w", errKind(i, je.Kind))
		}
		if je.Kind != KSkip && je.Delta != nil {
			return nil, fmt.Errorf("trace: decode json: event %d, a %v, carries a delta, which no recording holds", i, je.Kind)
		}
		tr.Events[i] = Event{
			Thread: je.Thread, Kind: je.Kind, Lock: je.Lock, Addr: je.Addr, Value: je.Value, Op: je.Op,
			Cost: je.Cost, Time: je.Time, Site: je.Site, Spin: je.Spin,
		}
		tr.setExt(i, EventExt{Delta: je.Delta})
	}
	if len(jt.Sites) > 0 {
		tr.Sites.sites = jt.Sites
		tr.Sites.rebuildIndex()
	}
	if tr.MemNames == nil {
		tr.MemNames = make(map[memmodel.Addr]string)
	}
	if tr.SpinLocks == nil {
		tr.SpinLocks = make(map[LockID]bool)
	}
	return tr, nil
}

// binWriter keeps the scratch a fixed-width field passes through in the
// struct: a local array handed to an io interface escapes, which cost one
// heap object per field.
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

// maxStr bounds string lengths in untrusted input; no recorder-produced
// string (file names, variable names) comes anywhere near it.
const maxStr = 1 << 20

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

// writeHeader writes what the v3 and PCOL formats share, in this order:
// magic, version, app, threads, total time, sites, memory names, spin
// locks, the initial and final memory images, a zero constraint count
// and the event count. The tables are written sorted, so equal traces
// write equal bytes.
func writeHeader(b *binWriter, magic, version uint32, tr *Trace) {
	b.u32(magic)
	b.u32(version)
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

	b.u32(0) // constraints: a recording has none
	b.u32(uint32(len(tr.Events)))
}

// readHeader reads what writeHeader wrote and returns a trace with its
// events allocated, still zero. A wrong magic or version, more than
// MaxThreads threads, a constraint, or an event count past MaxEvents is
// an error. A
// truncation, or an event count the remaining bytes cannot back at
// eventMin bytes an event, is left in r.err for the caller to report.
func readHeader(r *sliceReader, magic, version uint32, eventMin int) (*Trace, error) {
	if m := r.u32(); r.err == nil && m != magic {
		return nil, fmt.Errorf("trace: bad magic %#x, want %#x", m, magic)
	}
	if v := r.u32(); r.err == nil && v != version {
		return nil, fmt.Errorf("trace: unsupported version %d, want %d", v, version)
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
	if n := r.u32(); r.err == nil && n != 0 {
		return nil, fmt.Errorf("trace: %d constraints, which no recording holds", n)
	}

	nev := r.u32()
	if r.err != nil {
		return tr, nil
	}
	if err := checkEventCount(uint64(nev)); err != nil {
		return nil, err
	}
	// The count is untrusted input: one the remaining bytes cannot back
	// is refused before anything is allocated for it.
	if rest := len(r.data) - r.off; int64(nev) > int64(rest/eventMin) {
		r.err = fmt.Errorf("%d events need at least %d bytes, have %d", nev, int64(nev)*int64(eventMin), rest)
		return tr, nil
	}
	tr.Events = make([]Event, nev)
	return tr, nil
}

// packFlags and unpackFlags convert an event's kind, spin flag and write
// op to and from the flags word both binary formats store:
// kind | spin<<8 | op<<9.
func packFlags(e *Event) uint32 {
	flags := uint32(e.Kind) | uint32(e.Op)<<9
	if e.Spin {
		flags |= 1 << 8
	}
	return flags
}

func unpackFlags(flags uint32) (Kind, bool, WriteOp) {
	return Kind(flags & 0xff), flags&(1<<8) != 0, WriteOp(flags >> 9)
}

// WriteBinary writes the trace in the compact binary format.
func (tr *Trace) WriteBinary(w io.Writer) error {
	if err := storable(tr); err != nil {
		return err
	}
	b := &binWriter{w: bufio.NewWriter(w)}
	writeHeader(b, binMagic, binVersion, tr)
	for i := range tr.Events {
		e := &tr.Events[i]
		b.u32(uint32(e.Thread))
		b.u32(packFlags(e))
		b.u32(uint32(e.Lock))
		b.u32(uint32(e.Addr))
		b.i64(e.Value)
		b.i64(int64(e.Cost))
		b.i64(int64(e.Time))
		b.u32(uint32(e.Site))
		b.i64(0) // the lock and source counts: a recording has none
		if e.Kind == KSkip {
			writeSnapshot(b, tr.Ext(e).Delta)
		}
	}
	if b.err != nil {
		return fmt.Errorf("trace: write binary: %w", b.err)
	}
	return b.w.Flush()
}

// BinaryEventMin is what a v3 event occupies: the fixed fields and the
// lock and source counts, both zero. Only a skip's delta follows it,
// which lets a writer size its buffer from the event count.
const BinaryEventMin = 5*4 + 3*8 + 8

// DecodeBinary parses a trace previously written by WriteBinary. It keeps
// no reference to data.
func DecodeBinary(data []byte) (*Trace, error) {
	r := &sliceReader{data: data}
	tr, err := readHeader(r, binMagic, binVersion, BinaryEventMin)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(tr.Events) && r.err == nil; i++ {
		// One bounds check per event: the fixed fields and both counts.
		if len(data)-r.off < BinaryEventMin {
			r.short(BinaryEventMin)
			break
		}
		b := data[r.off : r.off+BinaryEventMin]
		kind, spin, op := unpackFlags(binary.LittleEndian.Uint32(b[4:]))
		if !kind.recorded() {
			r.err = errKind(i, kind)
			break
		}
		if binary.LittleEndian.Uint64(b[44:]) != 0 {
			r.err = fmt.Errorf("event %d carries lockset members, which no recording holds", i)
			break
		}
		r.off += BinaryEventMin
		tr.Events[i] = Event{
			Thread: int32(binary.LittleEndian.Uint32(b)),
			Kind:   kind,
			Spin:   spin,
			Op:     op,
			Lock:   LockID(binary.LittleEndian.Uint32(b[8:])),
			Addr:   memmodel.Addr(binary.LittleEndian.Uint32(b[12:])),
			Value:  int64(binary.LittleEndian.Uint64(b[16:])),
			Cost:   vtime.Duration(binary.LittleEndian.Uint64(b[24:])),
			Time:   vtime.Time(binary.LittleEndian.Uint64(b[32:])),
			Site:   SiteID(binary.LittleEndian.Uint32(b[40:])),
		}
		if kind == KSkip {
			tr.setExt(i, EventExt{Delta: r.snapshot()})
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("trace: read binary: %w", r.err)
	}
	return tr, nil
}
