package trace

import (
	"cmp"
	"fmt"
	"slices"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

// Constraint is an explicit happens-before edge between two events,
// identified by their global event indices. The transformation emits
// constraints to implement RULE 2 (preserve the original partial order of
// same-lock causal nodes) and the causal edges of RULE 1; the replayer
// refuses to start event Before until event After has completed.
type Constraint struct {
	After  int32 `json:"a"` // event that must complete first
	Before int32 `json:"b"` // event that must wait
}

// Plan is the ULCP-free schedule of a recording, as data about the
// recording rather than a second trace: which lockset replaces each
// critical section's lock operations (RULES 3 and 4) and which
// happens-before edges join them (RULES 1 and 2). transform.Plan builds
// it, replay.Run steps the recording under it, race.Detect and
// verify.Check read it, and transform.Apply writes it out as events for
// the tests. It lives here, beside Constraint, because transform builds
// it and replay — whose tests import transform — consumes it. Nothing
// mutates a built plan.
type Plan struct {
	// Acq and Rel are each critical section's boundary events, in
	// extraction order. Together they name every KLockAcq and KLockRel of
	// the recording exactly once.
	Acq, Rel []int32
	// Off has one entry more than Acq: section i's lockset is
	// Locks[Off[i]:Off[i+1]], sorted. An empty lockset removes the
	// section's lock operations.
	Off   []int32
	Locks []LockID
	// Sources parallels Locks: the release event of the critical section
	// whose auxiliary lock the member is, or -1 for the section's own
	// lock (see EventExt.Sources).
	Sources []int32
	// Constraints are the RULE-1/RULE-2 edges: the source section's
	// release completes before the target's acquisition starts.
	Constraints []Constraint
}

// Trace is a recorded (or transformed) execution.
type Trace struct {
	// App names the workload that produced the trace.
	App string
	// NumThreads is the thread count of the recorded run.
	NumThreads int
	// Events holds all events in recorded global time order. Transformed
	// traces preserve per-thread subsequences of the original.
	Events []Event
	// Exts holds the lockset and skip payloads, addressed by Event.Ext.
	// Decoders and the recorder append entries in ascending event order;
	// transform.Apply keeps the source trace's entries first and appends
	// its own behind them.
	Exts []EventExt
	// Sites resolves SiteIDs.
	Sites *SiteTable
	// MemNames maps addresses to workload variable names for reports.
	MemNames map[memmodel.Addr]string
	// InitMem is the initial memory image (non-zero cells only).
	InitMem memmodel.Snapshot
	// FinalMem is the memory image at the end of the recording run.
	FinalMem memmodel.Snapshot
	// TotalTime is the recorded wall (virtual) time of the run.
	TotalTime vtime.Duration
	// Constraints are explicit happens-before edges (transformed traces).
	Constraints []Constraint
	// SpinLocks marks locks whose waiters burn CPU (spin) rather than
	// block; the recorder fills it from the simulator's lock metadata so
	// CPU-waste accounting survives into replay.
	SpinLocks map[LockID]bool

	perThread [][]int32 // lazily built thread → event indices
	lockOrder map[LockID][]int32
}

// New returns an empty trace for an app with the given thread count.
func New(app string, threads int) *Trace {
	return &Trace{
		App:        app,
		NumThreads: threads,
		Sites:      NewSiteTable(),
		MemNames:   make(map[memmodel.Addr]string),
		SpinLocks:  make(map[LockID]bool),
	}
}

// Append adds an event and returns its global index.
func (tr *Trace) Append(e Event) int32 {
	tr.Events = append(tr.Events, e)
	tr.perThread = nil
	tr.lockOrder = nil
	return int32(len(tr.Events) - 1)
}

// AppendExt adds an event that carries x — a lockset's members and
// sources, or a skip's delta — and returns its global index. An x that
// holds nothing leaves the event without an entry, as a decoder would.
func (tr *Trace) AppendExt(e Event, x EventExt) int32 {
	e.Ext = 0
	i := tr.Append(e)
	tr.setExt(int(i), x)
	return i
}

// setExt gives event i the entry x unless x holds nothing. Decoders and
// AppendExt call it in ascending event order.
func (tr *Trace) setExt(i int, x EventExt) {
	if ext := tr.AddExt(x); ext != 0 {
		tr.Events[i].Ext = ext
	}
}

// AddExt stores x in the extension table and returns the Event.Ext that
// names it, or 0 — no entry — when x holds nothing. It is for a recorder
// that keeps its events outside Events while it runs; like setExt, it is
// called in ascending event order.
func (tr *Trace) AddExt(x EventExt) int32 {
	if x.empty() {
		return 0
	}
	tr.Exts = append(tr.Exts, x)
	return int32(len(tr.Exts))
}

// noExt is what Ext returns for an event without an entry.
var noExt EventExt

// Ext returns the event's lockset or skip payload, or a shared empty
// value when it has none (or names one the trace cannot back, which
// Validate and replay.Run reject); callers must not modify it.
func (tr *Trace) Ext(e *Event) *EventExt {
	if i := uint(e.Ext) - 1; i < uint(len(tr.Exts)) {
		return &tr.Exts[i]
	}
	return &noExt
}

// Aligned returns a copy of tr whose events may be rewritten in place —
// kind, lock, cost, extension; never the thread. The events and an
// extension table with room for extra more entries are the copy's own;
// everything else is shared, the per-thread index included if tr has
// built it: the copy has the same threads at the same indices. Outside
// tests its one caller is transform.Apply.
func (tr *Trace) Aligned(extra int) *Trace {
	out := *tr
	out.Events = slices.Clone(tr.Events)
	out.Exts = append(make([]EventExt, 0, len(tr.Exts)+extra), tr.Exts...)
	out.lockOrder = nil
	return &out
}

// Warm populates the lazily-built indices (PerThread, LockOrder) so the
// trace can afterwards be shared by concurrent readers. The lazy
// getters themselves are not safe to race on a cold trace; any caller
// that fans replay or analysis of one trace out across goroutines must
// warm it first.
func (tr *Trace) Warm() *Trace {
	tr.PerThread()
	tr.LockOrder()
	return tr
}

// PerThread returns, for each thread, the ascending global indices of its
// events. The result is cached; callers must not mutate it.
func (tr *Trace) PerThread() [][]int32 {
	if tr.perThread != nil {
		return tr.perThread
	}
	pt := make([][]int32, tr.NumThreads)
	for i := range tr.Events {
		t := tr.Events[i].Thread
		pt[t] = append(pt[t], int32(i))
	}
	tr.perThread = pt
	return pt
}

// LockOrder returns, for each original lock, the global indices of its
// KLockAcq events in recorded acquisition order. This is the total order
// ELSC re-imposes during replay (Sec. 5.2).
func (tr *Trace) LockOrder() map[LockID][]int32 {
	if tr.lockOrder != nil {
		return tr.lockOrder
	}
	lo := make(map[LockID][]int32)
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Kind == KLockAcq {
			lo[e.Lock] = append(lo[e.Lock], int32(i))
		}
	}
	tr.lockOrder = lo
	return lo
}

// CountKind tallies events of kind k.
func (tr *Trace) CountKind(k Kind) int {
	n := 0
	for i := range tr.Events {
		if tr.Events[i].Kind == k {
			n++
		}
	}
	return n
}

// DynamicLocks reports the number of dynamic lock acquisitions — the
// "#Locks" column of Table 1.
func (tr *Trace) DynamicLocks() int { return tr.CountKind(KLockAcq) }

// MaxThreads bounds the thread count of a trace: every decoder refuses a
// header claiming more before anything is sized by it, and Validate
// refuses a trace built with more. Analysis sizes some state by the
// square of the claimed count (the race detector's thread clocks), so
// the bound is what one stored trace can make a job allocate.
const MaxThreads = 1 << 10

// Validate checks structural invariants: a thread count within
// MaxThreads, thread IDs in range, kinds declared (the lockset kinds
// too: transform.Apply validates its output), lock acquire/release
// nesting well-formed per thread, write operations known, extension
// indices, constraint indices and lockset sources in range. A trace that fails
// validation indicates a recorder or transformation bug, or a file
// nothing here wrote.
func (tr *Trace) Validate() error {
	if tr.NumThreads < 0 || tr.NumThreads > MaxThreads {
		return fmt.Errorf("thread count %d", tr.NumThreads)
	}
	// A thread's map is made at its first acquisition, so threads that
	// take no lock cost a nil entry.
	held := make([]map[LockID]int, tr.NumThreads)
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Thread < 0 || int(e.Thread) >= tr.NumThreads {
			return fmt.Errorf("event %d: thread %d out of range [0,%d)", i, e.Thread, tr.NumThreads)
		}
		if uint(e.Ext) > uint(len(tr.Exts)) {
			return fmt.Errorf("event %d: extension %d out of range [0,%d]", i, e.Ext, len(tr.Exts))
		}
		if e.Kind == KInvalid || e.Kind > KBarrier {
			return fmt.Errorf("event %d: undeclared kind %v", i, e.Kind)
		}
		switch e.Kind {
		case KLockAcq:
			if held[e.Thread][e.Lock] > 0 {
				return fmt.Errorf("event %d: T%d re-acquires held %v", i, e.Thread, e.Lock)
			}
			if held[e.Thread] == nil {
				held[e.Thread] = make(map[LockID]int)
			}
			held[e.Thread][e.Lock]++
		case KLockRel:
			if held[e.Thread][e.Lock] == 0 {
				return fmt.Errorf("event %d: T%d releases unheld %v", i, e.Thread, e.Lock)
			}
			held[e.Thread][e.Lock]--
		case KWrite:
			if e.Op > WOr {
				return fmt.Errorf("event %d: unknown write op %d", i, e.Op)
			}
		case KLocksetAcq:
			x := tr.Ext(e)
			if len(x.Sources) != 0 && len(x.Sources) != len(x.Locks) {
				return fmt.Errorf("event %d: lockset sources/locks length mismatch", i)
			}
			for _, src := range x.Sources {
				if int(src) >= len(tr.Events) {
					return fmt.Errorf("event %d: lockset source %d out of range [0,%d)", i, src, len(tr.Events))
				}
			}
		}
	}
	for t, h := range held {
		// Name the lowest lock held, not whichever the map yields first.
		lowest, holding := LockID(0), false
		for l, n := range h {
			if n != 0 && (!holding || l < lowest) {
				lowest, holding = l, true
			}
		}
		if holding {
			return fmt.Errorf("thread %d ends holding %v", t, lowest)
		}
	}
	for _, c := range tr.Constraints {
		if int(c.After) >= len(tr.Events) || int(c.Before) >= len(tr.Events) || c.After < 0 || c.Before < 0 {
			return fmt.Errorf("constraint %v out of range", c)
		}
	}
	return nil
}

// Access is one shared address a critical section touches, and how.
type Access struct {
	Addr  memmodel.Addr
	Touch Touch
}

// Touch packs how a critical section touches one address: bit 0 is
// "read", and above it sit up to four 3-bit slots holding WriteOp+1, one
// per distinct write operation in first-seen order, zero-terminated. The
// order is kept because ulcp's memo key — the wire format of verdict
// tables — spells the operations in it.
type Touch uint16

// TouchRead is the Touch of a read.
const TouchRead Touch = 1

// Read reports whether the address is read.
func (t Touch) Read() bool { return t&TouchRead != 0 }

// Writes reports whether the address is written.
func (t Touch) Writes() bool { return t>>1 != 0 }

// Ops returns the distinct write operations applied to the address, in
// first-seen order, as ops[:n].
func (t Touch) Ops() (ops [4]WriteOp, n int) {
	for s := t >> 1; s != 0; s >>= 3 {
		ops[n] = WriteOp(s&7 - 1)
		n++
	}
	return ops, n
}

// WithOp adds a write operation unless it is already present. Validate
// rejects operations past WOr; on a trace that skipped it they alias.
func (t Touch) WithOp(op WriteOp) Touch {
	slot := Touch(op&3) + 1
	shift := 1
	for s := t >> 1; s != 0; s >>= 3 {
		if s&7 == slot {
			return t
		}
		shift += 3
	}
	return t | slot<<shift
}

// merge folds a later touch of the same address into t.
func (t Touch) merge(u Touch) Touch {
	t |= u & TouchRead
	for s := u >> 1; s != 0; s >>= 3 {
		t = t.WithOp(WriteOp(s&7 - 1))
	}
	return t
}

// CritSec is a dynamic critical section: one acquire/release span of one
// lock on one thread, with its shadow read/write sets (Sec. 3.1).
type CritSec struct {
	// ID is the index of this CS in the extraction order.
	ID int
	// Thread executed the CS.
	Thread int32
	// Lock is the original lock protecting the CS.
	Lock LockID
	// AcqEv and RelEv are the global event indices of the boundaries.
	AcqEv, RelEv int32
	// Start and End are the recorded boundary timestamps.
	Start, End vtime.Time
	// SeqInLock is the CS's position in the lock's acquisition order.
	SeqInLock int
	// Acc holds the shadow sets C.Srd and C.Swr as one list: every
	// address the CS touches, strictly ascending, with how it is touched.
	// NumReads and NumWrites count the entries that read and that write
	// (an address doing both counts in each).
	Acc                 []Access
	NumReads, NumWrites int32
	// Region is the merged code region spanned by the CS's events.
	Region Region
}

// Empty reports whether the CS performed no shared access — the paper's
// null-lock candidate condition (Algorithm 1, line 1).
func (cs *CritSec) Empty() bool { return len(cs.Acc) == 0 }

// String renders a compact identifier.
func (cs *CritSec) String() string {
	return fmt.Sprintf("CS#%d(T%d,%v,%s)", cs.ID, cs.Thread, cs.Lock, cs.Region)
}

// SetAccesses makes raw — one entry per access, in program order — the
// section's shadow sets: it sorts raw by address in place (stably, so an
// address's write operations fold in first-seen order), appends one
// entry per address to arena, points Acc at them and counts them. It
// returns the grown arena.
func (cs *CritSec) SetAccesses(arena, raw []Access) []Access {
	slices.SortStableFunc(raw, func(a, b Access) int { return cmp.Compare(a.Addr, b.Addr) })
	start := len(arena)
	for _, a := range raw {
		if n := len(arena); n > start && arena[n-1].Addr == a.Addr {
			arena[n-1].Touch = arena[n-1].Touch.merge(a.Touch)
		} else {
			arena = append(arena, a)
		}
	}
	cs.Acc = arena[start:len(arena):len(arena)]
	cs.NumReads, cs.NumWrites = 0, 0
	for _, a := range cs.Acc {
		if a.Touch.Read() {
			cs.NumReads++
		}
		if a.Touch.Writes() {
			cs.NumWrites++
		}
	}
	return arena
}

// openCS is a critical section still collecting its accesses.
type openCS struct {
	cs  *CritSec
	raw []Access
}

// ExtractCS walks the trace and returns every critical section of every
// original lock, in acquisition order of each lock and global order
// overall. Shared accesses performed while multiple locks are held are
// attributed to every open critical section (the nesting case Algorithm 2
// later fuses).
//
// The sections live in one slab and their access lists in one arena,
// both sized by a counting pass. The arena holds every access once, which
// is all a trace without nested sections needs; where sections nest, an
// append past it merely leaves the earlier lists on the previous array.
func (tr *Trace) ExtractCS() []*CritSec {
	sections, accesses := 0, 0
	for i := range tr.Events {
		switch tr.Events[i].Kind {
		case KLockAcq:
			sections++
		case KRead, KWrite:
			accesses++
		}
	}
	slab := make([]CritSec, sections)
	out := make([]*CritSec, 0, sections)
	arena := make([]Access, 0, accesses)
	// open[t] holds thread t's open sections; a slot past its length
	// keeps the raw buffer of a section sealed earlier, for the next one.
	// Two slots per thread, with room for eight accesses each, come from
	// two arrays; deeper nesting and longer sections append.
	open := make([][]openCS, tr.NumThreads)
	slots := make([]openCS, 2*tr.NumThreads)
	raws := make([]Access, 8*len(slots))
	for k := range slots {
		slots[k].raw = raws[8*k : 8*k : 8*k+8]
	}
	for t := range open {
		open[t] = slots[2*t : 2*t : 2*t+2]
	}
	seq := make(map[LockID]int, len(tr.lockOrder)) // sized when the trace is warm
	var sites []Site
	if tr.Sites != nil {
		sites = tr.Sites.All()
	}
	extend := func(cs *CritSec, id SiteID) {
		if id < 0 || int(id) >= len(sites) {
			id = NoSite // as SiteTable.At resolves it
		}
		if len(sites) > 0 {
			cs.Region = cs.Region.Extend(sites[id])
		}
	}
	// seal closes thread t's open section of lock l, if it has one, and
	// keeps the slot's raw buffer past the list's length.
	seal := func(t int32, l LockID) *CritSec {
		ot := open[t]
		for k := range ot {
			if cs := ot[k].cs; cs.Lock == l {
				arena = cs.SetAccesses(arena, ot[k].raw)
				last := len(ot) - 1
				ot[k], ot[last] = ot[last], ot[k]
				open[t] = ot[:last]
				return cs
			}
		}
		return nil
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case KLockAcq:
			cs := &slab[len(out)]
			*cs = CritSec{
				ID:        len(out),
				Thread:    e.Thread,
				Lock:      e.Lock,
				AcqEv:     int32(i),
				RelEv:     -1,
				Start:     e.Time,
				SeqInLock: seq[e.Lock],
			}
			extend(cs, e.Site)
			seq[e.Lock]++
			out = append(out, cs)
			// Re-acquired while held (an unvalidated trace): the first
			// section keeps what it collected and stays unreleased.
			seal(e.Thread, e.Lock)
			ot := open[e.Thread]
			n := len(ot)
			if n < cap(ot) {
				ot = ot[:n+1]
			} else {
				ot = append(ot, openCS{})
			}
			ot[n].cs, ot[n].raw = cs, ot[n].raw[:0]
			open[e.Thread] = ot
		case KLockRel:
			if cs := seal(e.Thread, e.Lock); cs != nil {
				cs.RelEv = int32(i)
				cs.End = e.Time
				extend(cs, e.Site)
			}
		case KRead, KWrite:
			touch := TouchRead
			if e.Kind == KWrite {
				touch = Touch(0).WithOp(e.Op)
			}
			ot := open[e.Thread]
			for k := range ot {
				ot[k].raw = append(ot[k].raw, Access{Addr: e.Addr, Touch: touch})
				extend(ot[k].cs, e.Site)
			}
		}
	}
	for _, ot := range open {
		for k := range ot {
			arena = ot[k].cs.SetAccesses(arena, ot[k].raw) // left open at end of trace
		}
	}
	return out
}

// CSByLock groups critical sections by lock, preserving acquisition order.
func CSByLock(css []*CritSec) map[LockID][]*CritSec {
	m := make(map[LockID][]*CritSec)
	for _, cs := range css {
		m[cs.Lock] = append(m[cs.Lock], cs)
	}
	return m
}
