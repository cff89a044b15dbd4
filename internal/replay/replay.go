// Package replay implements PerfPlay's data-driven trace replayer and the
// four scheduling schemes evaluated in the paper (Sec. 6.1):
//
//	ORIG-S — free parallel replay with seeded lock-arrival jitter; models
//	         the nondeterministic native re-execution whose run-to-run
//	         variance Fig. 11 illustrates.
//	ELSC-S — the paper's enforced locking serialization constraint: every
//	         lock's acquisitions replay in the recorded order. Because the
//	         recorded order is the schedule the costs already imply, ELSC
//	         adds no waiting, giving both stability and precision.
//	SYNC-S — a Kendo-style input-driven scheme: lock acquisitions are
//	         granted in a deterministic logical order computed from
//	         per-thread progress, independent of the recorded schedule,
//	         which introduces enforced waits (Fig. 12).
//	MEM-S  — a PinPlay/CoreDet-style scheme enforcing a total order over
//	         all shared-memory accesses; stable but far slower.
//
// The replayer re-executes reads and writes against a fresh memory image
// (writes carry their operation, not just the stored value), so modified
// replays — the reversed replay used to separate benign ULCPs from true
// contention, and the transformed ULCP-free replay — produce genuinely
// different final states when the order matters.
package replay

import (
	"fmt"
	"slices"
	"sync"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// Scheduler selects the replay enforcement scheme.
type Scheduler int

// The four schemes of Sec. 6.1.
const (
	OrigS Scheduler = iota
	ELSCS
	SyncS
	MemS
)

// String names the scheduler as in the paper's figures.
func (s Scheduler) String() string {
	switch s {
	case OrigS:
		return "ORIG-S"
	case ELSCS:
		return "ELSC-S"
	case SyncS:
		return "SYNC-S"
	case MemS:
		return "MEM-S"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Options configures a replay.
type Options struct {
	// Sched is the enforcement scheme.
	Sched Scheduler
	// Seed drives ORIG-S arrival jitter (within jitterWindow); ignored
	// by the other schemes.
	Seed int64
	// lockOrder overrides the enforced per-lock acquisition order for
	// ELSC-S. Keys are lock IDs; values are the global event indices of
	// that lock's KLockAcq events in the desired order. Nil uses the
	// recorded order. Only the package's tests set it: the reversed
	// replay of Sec. 3.1 runs on ulcp's overlay (internal/ulcp/sweep.go),
	// not on this engine.
	lockOrder map[trace.LockID][]int32
	// DLS enables the dynamic locking strategy (Fig. 9) on lockset
	// acquisitions: auxiliary locks whose source critical section already
	// finished are excluded from the acquired set.
	DLS bool
	// LocksetCost is the modelled per-member maintenance cost charged at
	// each lockset acquisition (RULE 4 intersection bookkeeping). Zero
	// disables the cost model; Table 3 compares replays with it on. One
	// END-flag check under DLS costs max(LocksetCost/8, 1).
	LocksetCost vtime.Duration
	// Plan, when set, replays the recording's ULCP-free schedule: every
	// critical section's lock operations act as the plan's lockset
	// acquisition and release (or cost nothing, where its lockset is
	// empty), under the plan's constraints — event for event what
	// replaying transform.Apply's trace yields, without that trace. The
	// trace must be the recording the plan was built from; a plan it
	// cannot back is an error. No lock order is enforced: under a plan
	// no original acquisition is left, so lockOrder is inert.
	Plan *trace.Plan
}

// Result is the outcome of one replay.
type Result struct {
	// Total is the replayed makespan.
	Total vtime.Duration
	// EventEnd holds the completion timestamp of every executed event,
	// indexed like the trace's Events slice.
	EventEnd []vtime.Time
	// EventStart holds the start timestamp of every executed event.
	EventStart []vtime.Time
	// PerThreadCPU is CPU consumed per thread (including spin waste and
	// lockset maintenance).
	PerThreadCPU []vtime.Duration
	// Waited is total blocked (non-CPU) waiting across threads.
	Waited vtime.Duration
	// SpinWaste is CPU burned waiting on spin locks.
	SpinWaste vtime.Duration
	// EnforceWait is waiting attributable purely to schedule enforcement
	// (SYNC-S / MEM-S chains), not to mutual exclusion.
	EnforceWait vtime.Duration
	// LocksetOverhead is the total maintenance cost charged for lockset
	// acquisitions.
	LocksetOverhead vtime.Duration
	// LocksetAcqs counts lockset acquisitions; LocksetMembers sums the
	// effective member counts actually acquired (after DLS filtering).
	LocksetAcqs, LocksetMembers int
	// FinalMem is the re-executed final memory image.
	FinalMem memmodel.Snapshot
	// ReadHash digests every value observed by every read, per thread in
	// program order, combined order-independently across threads. Two
	// replays "produce the same result" in the reversed-replay sense
	// (Sec. 3.1) iff their final memories AND read observations match.
	ReadHash uint64

	readHashes []uint64
}

// CPUTotal sums per-thread CPU.
func (r *Result) CPUTotal() vtime.Duration {
	var s vtime.Duration
	for _, c := range r.PerThreadCPU {
		s += c
	}
	return s
}

// lockState is one lock's replay state, found by slot (see engine.evSlot).
type lockState struct {
	held bool
	// ELSC: the enforced acquisition order of this lock and the cursor
	// into it. A lock the order does not name is not enforced.
	enforced bool
	// waiters lists the threads parked until the lock is released.
	waiters int32
	freeAt  vtime.Time
	order   []int32
	pos     int
}

// episode is one barrier episode: how many recorded participants it
// has, how many have registered at it, and the latest arrival clock.
type episode struct {
	members, arrived int32
	// waiters lists the threads parked until the last participant arrives.
	waiters int32
	maxAt   vtime.Time
}

// memCell is one cell of the replayed memory image. A cell that was only
// read stays out of FinalMem, as it would in a memmodel.Memory.
type memCell struct {
	addr memmodel.Addr
	set  bool
	v    int64
}

// openSet is the member subset a lockset acquisition actually took:
// engine.setSlots[off : off+n].
type openSet struct{ off, n int32 }

// kRemoved is the effective kind of a lock operation whose critical
// section the plan gives no lockset: it takes no time and no CPU, as the
// zero-cost compute event transform.Apply writes in its place.
const kRemoved trace.Kind = 0xff

type threadState struct {
	// The trace's layout: the thread's id, the global indices of its
	// events, and how many of them acquire a lock and a lockset.
	id            int32
	evs           []int32
	acqs, setAcqs int

	// Everything below is the run's.
	pos   int
	clock vtime.Time
	cpu   vtime.Duration
	// barMark is the barrier event this thread last registered at.
	barMark int32
	// open stacks the thread's unreleased lockset acquisitions (transform
	// emits them well nested), sized before the run by its acquisitions
	// of locksets or, under a plan, of locks.
	open []openSet
	// parked is set while the thread waits on a list (see engine.park);
	// parkNext is the next thread on that list, as thread index+1.
	parked   bool
	parkNext int32
	// waiters lists the threads parked until an event of this thread is
	// done, each naming its event in waitFor.
	waiters, waitFor int32
}

// slotTable gives IDs dense slots: IDs below a bound set by the trace's
// size live in an array (slot+1; 0 is none) that grows as they show up,
// the rest in a map — so an untrusted ID far past the trace costs a map
// entry, never an array that long.
type slotTable[K ~int32 | ~uint32 | ~int64] struct {
	arr   []int32
	bound int
	m     map[K]int32
}

// reset empties the table for IDs below bound, keeping its capacity.
func (t *slotTable[K]) reset(bound int) {
	t.arr, t.bound = t.arr[:0], bound
	clear(t.m)
}

// find returns k's slot, if it has one.
func (t *slotTable[K]) find(k K) (int32, bool) {
	switch {
	case uint64(k) < uint64(len(t.arr)):
		return t.arr[k] - 1, t.arr[k] != 0
	case uint64(k) < uint64(t.bound):
		return 0, false
	}
	s, ok := t.m[k]
	return s, ok
}

// get returns k's slot and true, or records next as its slot and
// returns next and false.
func (t *slotTable[K]) get(k K, next int32) (int32, bool) {
	if s, ok := t.find(k); ok {
		return s, true
	}
	if uint64(k) >= uint64(t.bound) {
		if t.m == nil {
			t.m = make(map[K]int32)
		}
		t.m[k] = next
		return next, false
	}
	if n := len(t.arr); uint64(k) >= uint64(n) {
		m := min(t.bound, max(int(k)+1, 2*n))
		t.arr = slices.Grow(t.arr, m-n)[:m]
		clear(t.arr[n:])
	}
	t.arr[k] = next + 1
	return next, false
}

// engine replays one trace. reset gives every lock, barrier episode and
// memory cell the trace names a dense slot and lays every lockset out in
// its own arrays — from the trace's extensions or from Options.Plan — so
// the stepping loop (loop, eligible, exec, kendoBarrier) indexes slices
// only and is the same loop for a transformed trace and a planned
// recording.
//
// The layout comes in two parts. The trace's (layTrace) depends on the
// trace alone; an engine keeps it for its next run over the same trace
// (see laid). The run's (layRun) depends on the options too: the lock
// slots or the plan's locksets, the constraints, and the runtime state.
//
// A thread whose next event waits on something only one event can change
// — an unfinished constraint target, a held lock or an ELSC cursor at
// another acquisition, an incomplete barrier episode — parks on that
// slot's waiter list, and loop skips it until the event that can change
// it wakes the list. Every other wait is polled.
type engine struct {
	tr   *trace.Trace
	opts Options

	// laid is the trace whose layout the engine holds for its next run, or
	// nil: a pooled engine, one whose last run failed, and one that last
	// replayed a trace with locksets (exec compacts their member slots in
	// place) lay the next trace out in full.
	laid *trace.Trace

	threads []threadState
	locks   []lockState
	// kind[i] is what event i replays as: its recorded kind, or what the
	// plan makes of a lock operation (KLocksetAcq, KLocksetRel, kRemoved).
	kind []trace.Kind
	// evSlot[i] is event i's index into locks (KLockAcq, KLockRel), the
	// offset of its lockset in setSlots (KLocksetAcq), its lockset's size
	// (KLocksetRel), its index into episodes (KBarrier) or into cells
	// (KRead, KWrite); other kinds never read it.
	evSlot []int32
	// A lockset of n members is n at setSlots[off] and the members' lock
	// slots behind it; setSrc parallels setSlots with each member's
	// source release event, or -1 for one DLS never drops. The trace's
	// own locksets are the first traceSets entries, a plan's follow them.
	setSlots, setSrc []int32
	traceSets        int
	episodes         []episode
	openBuf          []openSet // backs every threadState.open
	// cells is the memory image; image is what it holds when a run starts.
	cells, image []memCell

	// lockOps counts the trace's lock operations, nlocks the locks it
	// names, and firstSet is its first lockset event, or -1. laidPlan is the
	// plan whose sections' lock operations the last run laid out as
	// locksets; the next run lays them out as recorded again.
	lockOps, nlocks int
	firstSet        int32
	laidPlan        *trace.Plan

	// Constraints in CSR form: event i must wait for
	// preTgt[preOff[i]:preOff[i+1]]. preOff is empty without constraints.
	preOff, preTgt []int32
	done           []bool

	// executed counts the events run so far and lastEnd is when the latest
	// of them ended: under MEM-S, the next event of the recorded total
	// order and the time it may start.
	executed int
	lastEnd  vtime.Time

	// newArrival notes that an eligibility pass registered a barrier
	// arrival: the pass must be retried before declaring the replay stuck,
	// since the registration may have completed an episode.
	newArrival bool

	res *Result
	// next, when set, is the Result the next run over laid fills (see
	// Engine.Reserve).
	next *Result

	// polls counts eligible calls, for the tests that pin parking.
	polls int

	// Slot assignment scratch, touched by layTrace only (see find): lock
	// IDs, auxiliary lock ordinals, addresses, barrier IDs and, per
	// barrier, generations.
	lockIDs, auxIDs slotTable[trace.LockID]
	addrs           slotTable[memmodel.Addr]
	barIDs          slotTable[trace.LockID]
	barGens         []slotTable[int64]
}

// enginePool recycles engine scratch state across replays. The ULCP
// pipeline replays the same trace hundreds of times (per scheme, per
// transformed variant, per quantification sample); everything the
// engine allocates except the escaping Result is reusable.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

// sized returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// lockTable is the table that holds l's slot, and l's key in it: the
// recorder numbers locks densely from 1, and transform numbers auxiliary
// locks densely from AuxLockBase+1, so each kind is keyed by its ordinal.
func (e *engine) lockTable(l trace.LockID) (*slotTable[trace.LockID], trace.LockID) {
	if l.IsAux() {
		return &e.auxIDs, l - trace.AuxLockBase - 1
	}
	return &e.lockIDs, l
}

// find returns the lock's index into e.locks, if it has one.
func (e *engine) find(l trace.LockID) (int32, bool) {
	t, k := e.lockTable(l)
	return t.find(k)
}

// slot returns the lock's index into e.locks, assigning the next free
// one on first sight.
func (e *engine) slot(l trace.LockID) int32 {
	t, k := e.lockTable(l)
	s, ok := t.get(k, int32(len(e.locks)))
	if !ok {
		e.locks = append(e.locks, lockState{})
	}
	return s
}

// cell returns the address's index into e.image (and e.cells), assigning
// the next free one on first sight.
func (e *engine) cell(a memmodel.Addr) int32 {
	s, ok := e.addrs.get(a, int32(len(e.image)))
	if !ok {
		e.image = append(e.image, memCell{addr: a})
	}
	return s
}

// barrier returns the index into e.barGens of barrier bar's generation
// table, assigning the next free one on first sight, and counts one more
// event of bar in that table's bound: a barrier with k events has at
// most k episodes, so its generations below k are the ones worth an
// array, and all barriers' arrays together stay within the trace's size.
func (e *engine) barrier(bar trace.LockID) int32 {
	b, ok := e.barIDs.get(bar, int32(len(e.barGens)))
	if !ok {
		// Past the length may lie a recycled table: reset keeps its array.
		e.barGens = slices.Grow(e.barGens, 1)[:b+1]
		e.barGens[b].reset(0)
	}
	e.barGens[b].bound++
	return b
}

// episodeSlot returns the index into e.episodes of episode gen of the
// barrier whose generation table is e.barGens[b], assigning the next free
// one on first sight. The recorder counts generations from 0.
func (e *engine) episodeSlot(b int32, gen int64) int32 {
	s, ok := e.barGens[b].get(gen, int32(len(e.episodes)))
	if !ok {
		e.episodes = append(e.episodes, episode{})
	}
	return s
}

// reset prepares a (possibly recycled) engine for one run: it lays the
// trace out, unless the engine holds tr's layout already, and then the
// run. The two passes are also the input check — a thread id, extension
// index, lockset source, constraint index or plan the trace cannot back
// is an error here rather than an index panic in the loop. Every field
// is rebuilt or cleared in place, keeping capacity from previous runs.
func (e *engine) reset(tr *trace.Trace, opts Options) error {
	if e.laid != tr {
		e.laid = nil
		if err := e.layTrace(tr); err != nil {
			return err
		}
		if e.firstSet < 0 {
			e.laid = tr
		}
	}
	return e.layRun(opts)
}

// layTrace lays out what depends on the trace alone: one pass over the
// events records every event's kind and gives its lock, barrier episode
// or memory cell a slot, lays out the trace's own locksets, counts the
// lock operations and each thread's acquisitions, and builds the memory
// image a run starts from.
func (e *engine) layTrace(tr *trace.Trace) error {
	e.tr, e.next = tr, nil
	nev, nt := len(tr.Events), tr.NumThreads
	if nt < 0 {
		return fmt.Errorf("replay: thread count %d", nt)
	}
	e.threads = sized(e.threads, nt)
	clear(e.threads)
	e.kind = sized(e.kind, nev)
	e.evSlot = sized(e.evSlot, nev)
	// The tables' arrays stop at a bound linear in the trace's size, so
	// no ID the trace names can size one past that.
	bound := nev + len(tr.InitMem)
	e.lockIDs.reset(bound)
	e.auxIDs.reset(bound)
	e.addrs.reset(bound)
	e.barIDs.reset(bound)
	e.barGens = e.barGens[:0]
	e.locks, e.episodes, e.image = e.locks[:0], e.episodes[:0], e.image[:0]
	e.setSlots, e.setSrc = e.setSlots[:0], e.setSrc[:0]
	e.lockOps, e.firstSet, e.laidPlan = 0, -1, nil

	barriers := 0
	for i := range tr.Events {
		ev := &tr.Events[i]
		if uint(ev.Thread) >= uint(nt) {
			return fmt.Errorf("replay: event %d: thread %d out of range [0,%d)", i, ev.Thread, nt)
		}
		if uint(ev.Ext) > uint(len(tr.Exts)) {
			return fmt.Errorf("replay: event %d: extension %d out of range [0,%d]", i, ev.Ext, len(tr.Exts))
		}
		if (ev.Kind == trace.KLocksetAcq || ev.Kind == trace.KLocksetRel) && e.firstSet < 0 {
			e.firstSet = int32(i)
		}
		e.kind[i] = ev.Kind
		switch ev.Kind {
		case trace.KLockAcq, trace.KLockRel:
			e.evSlot[i] = e.slot(ev.Lock)
			e.lockOps++
			if ev.Kind == trace.KLockAcq {
				e.threads[ev.Thread].acqs++
			}
		case trace.KLocksetRel:
			e.evSlot[i] = int32(len(tr.Ext(ev).Locks))
		case trace.KLocksetAcq:
			x := tr.Ext(ev)
			e.evSlot[i] = e.openLockset(len(x.Locks))
			e.threads[ev.Thread].setAcqs++
			for _, l := range x.Locks {
				e.setSlots = append(e.setSlots, e.slot(l))
			}
			for _, src := range x.Sources {
				if int(src) >= nev {
					return fmt.Errorf("replay: event %d: lockset source %d out of range [0,%d)", i, src, nev)
				}
			}
			if len(x.Sources) == len(x.Locks) {
				e.setSrc = append(e.setSrc, x.Sources...)
			} else {
				for range x.Locks {
					e.setSrc = append(e.setSrc, -1) // sources that name no member drop none
				}
			}
		case trace.KBarrier:
			e.evSlot[i] = e.barrier(ev.Lock)
			barriers++
		case trace.KRead, trace.KWrite:
			e.evSlot[i] = e.cell(ev.Addr)
		case trace.KSkip:
			for a := range tr.Ext(ev).Delta {
				e.cell(a)
			}
		}
	}
	// Episodes wait for every barrier's event count, which bounds its
	// generation table; they take slots in event order all the same.
	for i := 0; barriers > 0; i++ {
		if e.kind[i] == trace.KBarrier {
			s := e.episodeSlot(e.evSlot[i], tr.Events[i].Value)
			e.episodes[s].members++
			e.evSlot[i] = s
			barriers--
		}
	}
	for a, v := range tr.InitMem {
		c := &e.image[e.cell(a)]
		c.v, c.set = v, true
	}
	for t, evs := range tr.PerThread() {
		e.threads[t].id, e.threads[t].evs = int32(t), evs
	}
	e.nlocks, e.traceSets = len(e.locks), len(e.setSlots)
	return nil
}

// layRun lays out what depends on the options as well: the lock
// operations, as recorded or as the plan says, the lock slots, the
// constraints, the ELSC order and a cleared runtime state.
func (e *engine) layRun(opts Options) error {
	tr := e.tr
	e.opts = opts
	nev, nt := len(tr.Events), tr.NumThreads
	planned := opts.Plan != nil
	if planned && e.firstSet >= 0 {
		return fmt.Errorf("replay: event %d: %v in a trace replayed under a plan", e.firstSet, e.kind[e.firstSet])
	}
	e.done = sized(e.done, nev)
	clear(e.done)
	e.cells = append(e.cells[:0], e.image...)
	for i := range e.episodes {
		ep := &e.episodes[i]
		ep.arrived, ep.waiters, ep.maxAt = 0, 0, 0
	}
	e.executed, e.lastEnd, e.newArrival, e.polls = 0, 0, false, 0

	e.setSlots, e.setSrc = e.setSlots[:e.traceSets], e.setSrc[:e.traceSets]
	if p := e.laidPlan; p != nil {
		e.laidPlan = nil
		for i := range p.Acq {
			for _, ev := range [2]int32{p.Acq[i], p.Rel[i]} {
				e.kind[ev] = tr.Events[ev].Kind
				e.evSlot[ev], _ = e.find(tr.Events[ev].Lock)
			}
		}
	}
	if planned {
		// The plan gives every lock operation a lockset, or removes it.
		e.laidPlan = opts.Plan
		if err := e.layPlan(opts.Plan, e.lockOps); err != nil {
			return err
		}
	} else {
		e.locks = sized(e.locks, e.nlocks)
		clear(e.locks)
	}

	// A thread holds at most as many locksets as it acquires, of locks
	// under a plan.
	opens := func(ts *threadState) int {
		if planned {
			return ts.acqs
		}
		return ts.setAcqs
	}
	nsets := 0
	for i := range e.threads {
		nsets += opens(&e.threads[i])
	}
	e.openBuf = sized(e.openBuf, nsets)
	open := e.openBuf
	for i := range e.threads {
		ts := &e.threads[i]
		n := opens(ts)
		*ts = threadState{id: ts.id, evs: ts.evs, acqs: ts.acqs, setAcqs: ts.setAcqs, barMark: -1, open: open[:0:n]}
		open = open[n:]
	}

	if opts.Sched == ELSCS && !planned {
		order := opts.lockOrder
		if order == nil {
			order = tr.LockOrder()
		}
		for l, acqs := range order {
			if s, ok := e.find(l); ok {
				e.locks[s].enforced, e.locks[s].order = true, acqs
			}
		}
	}

	e.preOff = e.preOff[:0]
	cons := [2][]trace.Constraint{tr.Constraints, nil}
	if planned {
		cons[1] = opts.Plan.Constraints
	}
	if n := len(cons[0]) + len(cons[1]); n > 0 {
		e.preOff = sized(e.preOff, nev+1)
		clear(e.preOff)
		e.preTgt = sized(e.preTgt, n)
		for _, cs := range cons {
			for _, c := range cs {
				if uint(c.After) >= uint(nev) || uint(c.Before) >= uint(nev) {
					return fmt.Errorf("replay: constraint %v out of range [0,%d)", c, nev)
				}
				e.preOff[c.Before]++
			}
		}
		// Prefix sums leave preOff[i] at the end of i's range; filling
		// backwards walks it down to the start, which is where i+1's
		// range must end.
		for i := 1; i <= nev; i++ {
			e.preOff[i] += e.preOff[i-1]
		}
		for _, cs := range cons {
			for _, c := range cs {
				e.preOff[c.Before]--
				e.preTgt[e.preOff[c.Before]] = c.After
			}
		}
	}

	e.res, e.next = e.next, nil
	if e.res == nil {
		e.res = newResult(nev, nt)
	}
	return nil
}

// newResult is a Result with its arrays for a trace of nev events and nt
// threads.
func newResult(nev, nt int) *Result {
	return &Result{
		EventEnd:     make([]vtime.Time, nev),
		EventStart:   make([]vtime.Time, nev),
		PerThreadCPU: make([]vtime.Duration, nt),
		readHashes:   make([]uint64, nt),
	}
}

// openLockset starts the layout of a lockset of n members: the count goes
// down here, the caller appends the n member slots and sources behind
// it. It returns the lockset's offset.
func (e *engine) openLockset(n int) int32 {
	off := int32(len(e.setSlots))
	e.setSlots = append(e.setSlots, int32(n))
	e.setSrc = append(e.setSrc, -1)
	return off
}

// layPlan makes the recording's lock operations replay as the plan says
// and checks that the trace backs the plan: the columns agree in length,
// every section names a lock acquisition and a release no other section
// names, the lockOps lock operations of the trace are all named, and
// every lock is an auxiliary one — whose ordinal is its slot, so no map
// is consulted.
func (e *engine) layPlan(p *trace.Plan, lockOps int) error {
	n, nev := len(p.Acq), len(e.kind)
	if len(p.Rel) != n || len(p.Off) != n+1 || len(p.Sources) != len(p.Locks) {
		return fmt.Errorf("replay: plan: %d acquisitions, %d releases, %d offsets; %d locks, %d sources",
			n, len(p.Rel), len(p.Off), len(p.Locks), len(p.Sources))
	}
	if 2*n != lockOps {
		return fmt.Errorf("replay: plan: %d critical sections for the trace's %d lock operations", n, lockOps)
	}
	numAux := 0
	for i, l := range p.Locks {
		// A lockset member is its owner's own lock somewhere, so the
		// ordinals cannot outnumber the members.
		ord := int(l) - int(trace.AuxLockBase)
		if ord < 1 || ord > len(p.Locks) {
			return fmt.Errorf("replay: plan: member %d: %v is not an auxiliary lock of the plan", i, l)
		}
		if int(p.Sources[i]) >= nev {
			return fmt.Errorf("replay: plan: member %d: lockset source %d out of range [0,%d)", i, p.Sources[i], nev)
		}
		numAux = max(numAux, ord)
	}
	e.locks = sized(e.locks, numAux)
	clear(e.locks)
	// Every member and at most one count per section: no append below
	// grows either array.
	e.setSlots = slices.Grow(e.setSlots, len(p.Locks)+n)
	e.setSrc = slices.Grow(e.setSrc, len(p.Locks)+n)
	for i := range p.Acq {
		acq, rel, lo, hi := p.Acq[i], p.Rel[i], p.Off[i], p.Off[i+1]
		if uint(acq) >= uint(nev) || e.kind[acq] != trace.KLockAcq || uint(rel) >= uint(nev) || e.kind[rel] != trace.KLockRel {
			return fmt.Errorf("replay: plan: critical section %d: events %d and %d are not a lock acquisition and release of its own", i, acq, rel)
		}
		if lo < 0 || lo > hi || int(hi) > len(p.Locks) {
			return fmt.Errorf("replay: plan: critical section %d: lockset [%d,%d) of %d members", i, lo, hi, len(p.Locks))
		}
		if lo == hi {
			e.kind[acq], e.kind[rel] = kRemoved, kRemoved
			continue
		}
		e.kind[acq], e.kind[rel] = trace.KLocksetAcq, trace.KLocksetRel
		e.evSlot[acq], e.evSlot[rel] = e.openLockset(int(hi-lo)), hi-lo
		for _, l := range p.Locks[lo:hi] {
			e.setSlots = append(e.setSlots, int32(l-trace.AuxLockBase-1))
		}
		e.setSrc = append(e.setSrc, p.Sources[lo:hi]...)
	}
	return nil
}

// release returns the engine to the pool, dropping every reference that
// would otherwise keep the trace, the caller's options, or the escaping
// Result alive while the engine idles in the pool.
func (e *engine) release() {
	e.tr, e.laid, e.laidPlan, e.opts, e.res, e.next = nil, nil, nil, Options{}, nil, nil
	clear(e.threads)
	clear(e.locks)
	enginePool.Put(e)
}

// Run replays the trace under the given options.
func Run(tr *trace.Trace, opts Options) (*Result, error) {
	e := enginePool.Get().(*engine)
	defer e.release()
	return e.run(tr, opts)
}

// Engine is a replay engine that one caller holds across several
// replays of one trace — a job's scheme replays and then its replay
// under the plan — so only the first of them lays the trace out and
// each later one lays out only its own run. It comes from, and goes
// back to, the pool Run draws on. The trace must not change while the
// Engine replays it, and an Engine serves one goroutine at a time.
type Engine struct{ e *engine }

// NewEngine takes an engine from the pool; Release gives it back.
func NewEngine() *Engine { return &Engine{enginePool.Get().(*engine)} }

// Run is Run on this engine: a Result equal to a fresh engine's.
func (j *Engine) Run(tr *trace.Trace, opts Options) (*Result, error) { return j.e.run(tr, opts) }

// Reserve allocates the Result of the engine's next run over the trace
// its last run laid out, so a caller with time to spare pays for those
// arrays there rather than on the next run's path. It does nothing when
// the engine holds no layout.
func (j *Engine) Reserve() {
	if tr := j.e.laid; tr != nil && j.e.next == nil {
		j.e.next = newResult(len(tr.Events), tr.NumThreads)
	}
}

// Release returns the engine to the pool. The Engine is unusable after.
func (j *Engine) Release() {
	j.e.release()
	j.e = nil
}

// run is Run on this engine, whatever it replayed before. A failed run
// leaves no layout behind.
func (e *engine) run(tr *trace.Trace, opts Options) (*Result, error) {
	err := e.reset(tr, opts)
	if err == nil {
		err = e.loop()
	}
	if err != nil {
		e.laid = nil
		return nil, err
	}
	res := e.res
	var total vtime.Time
	for i := range e.threads {
		ts := &e.threads[i]
		if ts.clock > total {
			total = ts.clock
		}
		res.PerThreadCPU[i] = ts.cpu
	}
	res.Total = vtime.Duration(total)
	res.FinalMem = e.snapshot()
	for t, h := range res.readHashes {
		// Mix per-thread digests order-independently across threads.
		x := h + uint64(t)*0x9e3779b97f4a7c15
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		res.ReadHash ^= x
	}
	return res, nil
}

// snapshot returns the cells anything stored to, as memmodel.Memory's
// Snapshot would.
func (e *engine) snapshot() memmodel.Snapshot {
	n := 0
	for i := range e.cells {
		if e.cells[i].set {
			n++
		}
	}
	s := make(memmodel.Snapshot, n)
	for _, c := range e.cells {
		if c.set {
			s[c.addr] = c.v
		}
	}
	return s
}

// next returns the thread's next pending event index, or -1.
func (ts *threadState) next() int32 {
	if ts.pos >= len(ts.evs) {
		return -1
	}
	return ts.evs[ts.pos]
}

// loop steps the replay: each pass polls every unparked thread's pending
// event, in thread order, and executes the one that can start earliest,
// the lowest thread on a tie. A parked thread's poll would fail and
// change nothing (see park), so skipping it leaves every pass's winner
// and every barrier registration as they were.
func (e *engine) loop() error {
	for e.executed < len(e.tr.Events) {
		best := -1
		var bestStart, bestPrio vtime.Time
		for i := range e.threads {
			ts := &e.threads[i]
			if ts.parked {
				continue
			}
			idx := ts.next()
			if idx < 0 {
				continue
			}
			e.polls++
			start, ok := e.eligible(ts, idx)
			if !ok {
				continue
			}
			prio := start
			if e.opts.Sched == OrigS && e.kind[idx] == trace.KLockAcq {
				prio = start.Add(e.jitter(idx))
			}
			if best == -1 || prio < bestPrio {
				best, bestStart, bestPrio = i, start, prio
			}
		}
		if best == -1 {
			if e.newArrival {
				e.newArrival = false
				continue // a barrier arrival registered: retry the pass
			}
			return e.stuckErr()
		}
		e.exec(&e.threads[best], bestStart)
	}
	return nil
}

func (e *engine) stuckErr() error {
	var pend []string
	for i := range e.threads {
		ts := &e.threads[i]
		if idx := ts.next(); idx >= 0 {
			pend = append(pend, fmt.Sprintf("T%d@ev%d(%v)", ts.id, idx, e.kind[idx]))
		}
	}
	return fmt.Errorf("replay stuck under %v: pending %v", e.opts.Sched, pend)
}

// jitterWindow bounds ORIG-S lock-arrival jitter: a fraction of a
// typical critical section.
const jitterWindow vtime.Duration = 200

// jitter derives a deterministic pseudo-random arrival perturbation for an
// event from the replay seed (ORIG-S only).
func (e *engine) jitter(idx int32) vtime.Duration {
	h := uint64(e.opts.Seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return vtime.Duration(h % uint64(jitterWindow))
}

// park takes the thread off the polling loop until the waiter list is
// woken. A thread parks only where its poll fails until one event — the
// one that wakes the list — has run, and where the failed polls have no
// side effect: a barrier arrival registers on the poll that parks it, or
// on a poll after its constraints' targets are done.
func (e *engine) park(ts *threadState, list *int32) {
	ts.parked, ts.parkNext = true, *list
	*list = ts.id + 1
}

// wake returns every thread parked on the list to the polling loop.
func (e *engine) wake(list *int32) {
	for t := *list; t != 0; t = e.threads[t-1].parkNext {
		e.threads[t-1].parked = false
	}
	*list = 0
}

// wakeFor returns to the polling loop the threads parked until ts's
// event idx is done, and keeps the rest, which wait for later events of
// ts, on its list.
func (e *engine) wakeFor(ts *threadState, idx int32) {
	t := ts.waiters
	ts.waiters = 0
	for t != 0 {
		w := &e.threads[t-1]
		next := w.parkNext
		if w.waitFor == idx {
			w.parked = false
		} else {
			w.parkNext, ts.waiters = ts.waiters, t
		}
		t = next
	}
}

// eligible reports whether the event can execute now and the earliest
// virtual time it may start, parking the thread where it cannot.
func (e *engine) eligible(ts *threadState, idx int32) (vtime.Time, bool) {
	kind := e.kind[idx]
	start := ts.clock

	if len(e.preOff) > 0 {
		for _, p := range e.preTgt[e.preOff[idx]:e.preOff[idx+1]] {
			if !e.done[p] {
				ts.waitFor = p
				e.park(ts, &e.threads[e.tr.Events[p].Thread].waiters)
				return 0, false
			}
			if e.res.EventEnd[p] > start {
				start = e.res.EventEnd[p]
			}
		}
	}

	// Barrier arrivals register unconditionally (before any enforcement
	// gate): other participants' eligibility depends on seeing this
	// thread parked at the episode.
	if kind == trace.KBarrier && ts.barMark != idx {
		ts.barMark = idx
		ep := &e.episodes[e.evSlot[idx]]
		if ep.arrived == 0 || start > ep.maxAt {
			ep.maxAt = start
		}
		ep.arrived++
		e.newArrival = true
		if ep.arrived == ep.members {
			// Later threads of this pass see the episode complete, as
			// their polls would have.
			e.wake(&ep.waiters)
		}
	}

	// MEM-S enforces a total order over all shared-memory access points:
	// in a trace whose compute segments summarize the instructions between
	// accesses, that pins every event to the recorded global sequence —
	// the whole execution serializes, which is exactly the 2x-20x
	// PinPlay/CoreDet regime the paper cites.
	if e.opts.Sched == MemS {
		if int(idx) != e.executed {
			return 0, false
		}
		if e.lastEnd > start {
			start = e.lastEnd
		}
	}

	switch kind {
	case trace.KLockAcq:
		// A held lock stays held, and an ELSC cursor stays put, until the
		// lock's next release: only an acquisition moves the cursor, and
		// it leaves the lock held.
		ls := &e.locks[e.evSlot[idx]]
		if ls.held || ls.enforced && (ls.pos >= len(ls.order) || ls.order[ls.pos] != idx) {
			e.park(ts, &ls.waiters)
			return 0, false
		}
		if e.opts.Sched == SyncS {
			// Kendo-style input-driven determinism: a thread may acquire
			// only when its logical clock (its position in its own event
			// stream) is globally minimal, so fast threads wait for slow
			// ones at every acquisition — the enforced waiting Fig. 12
			// contrasts with ELSC. Threads already parked on a held lock
			// are exempt (their logical clocks advance while spinning).
			// The gate reads every thread, so a thread it stops polls.
			if wait, ok := e.kendoBarrier(ts); !ok {
				return 0, false
			} else if wait > start {
				start = wait
			}
		}
		if ls.freeAt > start {
			start = ls.freeAt
		}
	case trace.KLocksetAcq:
		off := e.evSlot[idx]
		for i, end := off+1, off+e.setSlots[off]; i <= end; i++ {
			if e.dropped(i) {
				continue
			}
			ls := &e.locks[e.setSlots[i]]
			if ls.held {
				// A member DLS may yet drop frees up without a release.
				if !e.opts.DLS || e.setSrc[i] < 0 {
					e.park(ts, &ls.waiters)
				}
				return 0, false
			}
			if ls.freeAt > start {
				start = ls.freeAt
			}
		}
	case trace.KBarrier:
		ep := &e.episodes[e.evSlot[idx]]
		if ep.arrived < ep.members {
			e.park(ts, &ep.waiters) // waiting for the other participants
			return 0, false
		}
		if ep.maxAt > start {
			start = ep.maxAt
		}
	}
	return start, true
}

// kendoBarrier implements SYNC-S's logical-clock gate for a thread about
// to acquire a lock: the acquisition may start only once every other
// thread's progress counter (events completed) has reached this thread's,
// and no earlier than the moment the slowest of them got there. Threads
// parked on a held mutex are exempt — Kendo lets a spinning thread's
// logical clock keep advancing.
func (e *engine) kendoBarrier(ts *threadState) (vtime.Time, bool) {
	p := ts.pos
	var wait vtime.Time
	for i := range e.threads {
		o := &e.threads[i]
		if o == ts {
			continue
		}
		limit := min(p, len(o.evs))
		if o.pos < limit {
			idx := o.next()
			if e.kind[idx] == trace.KLockAcq && e.locks[e.evSlot[idx]].held {
				continue // spinning: its logical clock advances
			}
			return 0, false
		}
		if limit > 0 {
			if end := e.res.EventEnd[o.evs[limit-1]]; end > wait {
				wait = end
			}
		}
	}
	return wait, true
}

// dropped applies the dynamic locking strategy to the lockset member at
// setSlots[i]: a source critical section that already finished (its
// release event executed) contributes no lock.
func (e *engine) dropped(i int32) bool {
	return e.opts.DLS && e.setSrc[i] >= 0 && e.done[e.setSrc[i]]
}

// maintenance is the modelled bookkeeping cost of acquiring or releasing
// a lockset of full members of which taken are actually held. Without
// DLS, RULE-4 bookkeeping walks the full lockset. With DLS every member
// costs one END check of max(LocksetCost/8, 1) on acquisition (a release
// checks nothing) and only the members beyond the degenerate single-lock
// case pay full maintenance (a one-lock set is a plain mutex, whose cost
// the event already carries).
func (e *engine) maintenance(full, taken int, acquire bool) vtime.Duration {
	cost := e.opts.LocksetCost
	switch {
	case cost <= 0:
		return 0
	case !e.opts.DLS:
		return cost * vtime.Duration(full)
	}
	var check vtime.Duration
	if acquire {
		check = max(cost/8, 1)
	}
	return check*vtime.Duration(full) + cost*vtime.Duration(max(taken-1, 0))
}

// exec runs one event starting at the given time.
func (e *engine) exec(ts *threadState, start vtime.Time) {
	idx := ts.next()
	ev, kind := &e.tr.Events[idx], e.kind[idx]
	wait := start.Sub(ts.clock)
	if wait > 0 {
		if kind == trace.KLockAcq && ev.Spin {
			ts.cpu += wait
			e.res.SpinWaste += wait
		} else {
			e.res.Waited += wait
			if e.opts.Sched == MemS || (e.opts.Sched == SyncS && kind == trace.KLockAcq) {
				e.res.EnforceWait += wait
			}
		}
	}
	cost := ev.Cost
	switch kind {
	case trace.KThreadStart, trace.KThreadEnd, kRemoved:
		cost = 0
	case trace.KLockAcq:
		ls := &e.locks[e.evSlot[idx]]
		ls.held = true
		if ls.enforced {
			ls.pos++
		}
	case trace.KLockRel:
		ls := &e.locks[e.evSlot[idx]]
		ls.held = false
		ls.freeAt = start.Add(cost)
		e.wake(&ls.waiters)
	case trace.KLocksetAcq:
		// Take the effective members, compacting their slots to the front
		// of this lockset's members: the matching release frees exactly
		// that subset, and no later step reads the members again.
		off := e.evSlot[idx] + 1
		full := e.setSlots[off-1]
		n := off
		for i := off; i < off+full; i++ {
			if e.dropped(i) {
				continue
			}
			s := e.setSlots[i]
			e.locks[s].held = true
			e.setSlots[n] = s
			n++
		}
		maint := e.maintenance(int(full), int(n-off), true)
		cost += maint
		e.res.LocksetOverhead += maint
		e.res.LocksetAcqs++
		e.res.LocksetMembers += int(n - off)
		ts.open = append(ts.open, openSet{off: off, n: n - off})
	case trace.KLocksetRel:
		// The matching acquisition is the thread's innermost open one; a
		// release with nothing open frees nothing.
		if top := len(ts.open) - 1; top >= 0 {
			held := ts.open[top]
			ts.open = ts.open[:top]
			maint := e.maintenance(int(e.evSlot[idx]), int(held.n), false)
			cost += maint
			e.res.LocksetOverhead += maint
			end := start.Add(cost)
			for _, s := range e.setSlots[held.off : held.off+held.n] {
				ls := &e.locks[s]
				ls.held = false
				ls.freeAt = end
				e.wake(&ls.waiters)
			}
		}
	case trace.KRead:
		// Re-execute the load against the replayed memory image and fold
		// the observed value into the thread's read digest.
		v := e.cells[e.evSlot[idx]].v
		h := e.res.readHashes[ts.id]
		h = h*1099511628211 + uint64(v) + uint64(ev.Addr)<<32
		e.res.readHashes[ts.id] = h
	case trace.KWrite:
		c := &e.cells[e.evSlot[idx]]
		c.v, c.set = ev.Op.Apply(c.v, ev.Value), true
	case trace.KSkip:
		for a, v := range e.tr.Ext(ev).Delta {
			s, _ := e.addrs.find(a) // reset gave every address a cell
			e.cells[s].v, e.cells[s].set = v, true
		}
	}

	end := start.Add(cost)
	if kind != trace.KSleep && kind != trace.KThreadStart && kind != trace.KThreadEnd {
		ts.cpu += cost // a sleep passes time without CPU
	}
	e.executed, e.lastEnd = e.executed+1, end
	ts.clock = end
	e.res.EventStart[idx] = start
	e.res.EventEnd[idx] = end
	e.done[idx] = true
	if ts.waiters != 0 {
		e.wakeFor(ts, idx)
	}
	ts.pos++
}
