package trace

import (
	"fmt"

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

// Trace is a recorded (or transformed) execution.
type Trace struct {
	// App names the workload that produced the trace.
	App string `json:"app"`
	// NumThreads is the thread count of the recorded run.
	NumThreads int `json:"threads"`
	// Events holds all events in recorded global time order. Transformed
	// traces preserve per-thread subsequences of the original.
	Events []Event `json:"events"`
	// Sites resolves SiteIDs.
	Sites *SiteTable `json:"-"`
	// MemNames maps addresses to workload variable names for reports.
	MemNames map[memmodel.Addr]string `json:"memnames,omitempty"`
	// InitMem is the initial memory image (non-zero cells only).
	InitMem memmodel.Snapshot `json:"initmem,omitempty"`
	// FinalMem is the memory image at the end of the recording run.
	FinalMem memmodel.Snapshot `json:"finalmem,omitempty"`
	// TotalTime is the recorded wall (virtual) time of the run.
	TotalTime vtime.Duration `json:"total"`
	// Constraints are explicit happens-before edges (transformed traces).
	Constraints []Constraint `json:"constraints,omitempty"`
	// SpinLocks marks locks whose waiters burn CPU (spin) rather than
	// block; the recorder fills it from the simulator's lock metadata so
	// CPU-waste accounting survives into replay.
	SpinLocks map[LockID]bool `json:"spinlocks,omitempty"`

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

// SharedOrder returns global indices of all shared-memory accesses in
// recorded order; MEM-S replay enforces this total order.
func (tr *Trace) SharedOrder() []int32 {
	var out []int32
	for i := range tr.Events {
		if tr.Events[i].IsShared() {
			out = append(out, int32(i))
		}
	}
	return out
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

// Validate checks structural invariants: thread IDs in range, lock
// acquire/release nesting well-formed per thread, constraint indices and
// lockset sources in range. A trace that fails validation indicates a
// recorder or transformation bug, or a file nothing here wrote.
func (tr *Trace) Validate() error {
	if tr.NumThreads < 0 {
		return fmt.Errorf("thread count %d", tr.NumThreads)
	}
	held := make([]map[LockID]int, tr.NumThreads)
	for i := range held {
		held[i] = make(map[LockID]int)
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Thread < 0 || int(e.Thread) >= tr.NumThreads {
			return fmt.Errorf("event %d: thread %d out of range [0,%d)", i, e.Thread, tr.NumThreads)
		}
		switch e.Kind {
		case KLockAcq:
			if held[e.Thread][e.Lock] > 0 {
				return fmt.Errorf("event %d: T%d re-acquires held %v", i, e.Thread, e.Lock)
			}
			held[e.Thread][e.Lock]++
		case KLockRel:
			if held[e.Thread][e.Lock] == 0 {
				return fmt.Errorf("event %d: T%d releases unheld %v", i, e.Thread, e.Lock)
			}
			held[e.Thread][e.Lock]--
		case KLocksetAcq:
			if len(e.Sources) != 0 && len(e.Sources) != len(e.Locks) {
				return fmt.Errorf("event %d: lockset sources/locks length mismatch", i)
			}
			for _, src := range e.Sources {
				if int(src) >= len(tr.Events) {
					return fmt.Errorf("event %d: lockset source %d out of range [0,%d)", i, src, len(tr.Events))
				}
			}
		}
	}
	for t, h := range held {
		for l, n := range h {
			if n != 0 {
				return fmt.Errorf("thread %d ends holding %v", t, l)
			}
		}
	}
	for _, c := range tr.Constraints {
		if int(c.After) >= len(tr.Events) || int(c.Before) >= len(tr.Events) || c.After < 0 || c.Before < 0 {
			return fmt.Errorf("constraint %v out of range", c)
		}
	}
	return nil
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
	// Reads and Writes are the shadow sets C.Srd and C.Swr.
	Reads, Writes map[memmodel.Addr]struct{}
	// WriteOps records the operation kinds applied per written address
	// (used by the benign pre-filter).
	WriteOps map[memmodel.Addr][]WriteOp
	// Region is the merged code region spanned by the CS's events.
	Region Region
}

// Empty reports whether the CS performed no shared access — the paper's
// null-lock candidate condition (Algorithm 1, line 1).
func (cs *CritSec) Empty() bool { return len(cs.Reads) == 0 && len(cs.Writes) == 0 }

// ReadOnly reports whether the CS performed reads but no writes.
func (cs *CritSec) ReadOnly() bool { return len(cs.Writes) == 0 && len(cs.Reads) > 0 }

// String renders a compact identifier.
func (cs *CritSec) String() string {
	return fmt.Sprintf("CS#%d(T%d,%v,%s)", cs.ID, cs.Thread, cs.Lock, cs.Region)
}

// ExtractCS walks the trace and returns every critical section of every
// original lock, in acquisition order of each lock and global order
// overall. Shared accesses performed while multiple locks are held are
// attributed to every open critical section (the nesting case Algorithm 2
// later fuses).
func (tr *Trace) ExtractCS() []*CritSec {
	var out []*CritSec
	open := make([]map[LockID]*CritSec, tr.NumThreads)
	for i := range open {
		open[i] = make(map[LockID]*CritSec)
	}
	seq := make(map[LockID]int)
	sites := tr.Sites
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case KLockAcq:
			cs := &CritSec{
				ID:        len(out),
				Thread:    e.Thread,
				Lock:      e.Lock,
				AcqEv:     int32(i),
				RelEv:     -1,
				Start:     e.Time,
				SeqInLock: seq[e.Lock],
				Reads:     make(map[memmodel.Addr]struct{}),
				Writes:    make(map[memmodel.Addr]struct{}),
				WriteOps:  make(map[memmodel.Addr][]WriteOp),
			}
			if sites != nil {
				cs.Region = cs.Region.Extend(sites.At(e.Site))
			}
			seq[e.Lock]++
			open[e.Thread][e.Lock] = cs
			out = append(out, cs)
		case KLockRel:
			if cs := open[e.Thread][e.Lock]; cs != nil {
				cs.RelEv = int32(i)
				cs.End = e.Time
				if sites != nil {
					cs.Region = cs.Region.Extend(sites.At(e.Site))
				}
				delete(open[e.Thread], e.Lock)
			}
		case KRead:
			for _, cs := range open[e.Thread] {
				cs.Reads[e.Addr] = struct{}{}
				if sites != nil {
					cs.Region = cs.Region.Extend(sites.At(e.Site))
				}
			}
		case KWrite:
			for _, cs := range open[e.Thread] {
				cs.Writes[e.Addr] = struct{}{}
				cs.WriteOps[e.Addr] = append(cs.WriteOps[e.Addr], e.Op)
				if sites != nil {
					cs.Region = cs.Region.Extend(sites.At(e.Site))
				}
			}
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
