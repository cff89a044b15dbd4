package replay

// The map-based engine this package shipped before the dense-index
// rebuild, kept verbatim (minus the pool) as the differential oracle:
// TestEngineMatchesReference asserts Run ≡ runRef on whole Results.

import (
	"fmt"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// barKey identifies one barrier episode.
type barKey struct {
	bar trace.LockID
	gen int64
}

type refLockState struct {
	held   bool
	freeAt vtime.Time
}

type refThreadState struct {
	id    int32
	evs   []int32 // global indices of this thread's events
	pos   int
	clock vtime.Time
	cpu   vtime.Duration
}

type refEngine struct {
	tr   *trace.Trace
	opts Options
	mem  *memmodel.Memory

	// jitterWindow bounds ORIG-S arrival jitter; dlsCheckCost is one END
	// check under DLS.
	jitterWindow, dlsCheckCost vtime.Duration

	threads []*refThreadState
	locks   map[trace.LockID]*refLockState

	// ELSC per-lock cursors: position in the enforced acquisition order.
	elscOrder map[trace.LockID][]int32
	elscPos   map[trace.LockID]int

	// MEM-S: the recorded total order over every event.
	memOrder   []int32
	memPos     int
	memLastEnd vtime.Time

	// Constraint bookkeeping.
	prereqs map[int32][]int32
	done    []bool

	// Lockset bookkeeping: acquired member subset per open lockset-acq
	// event, and a per-thread stack of open acquisitions (transform emits
	// them well nested).
	heldSets map[int32][]trace.LockID
	openSets [][]int32

	// Barrier bookkeeping: episode key -> member event indices, and the
	// set of members whose thread has arrived (is pending at the event),
	// with arrival clocks.
	barGroups  map[barKey][]int32
	barArrived map[barKey]map[int32]vtime.Time
	// newArrival notes that an eligibility pass registered a barrier
	// arrival: the pass must be retried before declaring the replay stuck,
	// since the registration may have completed an episode.
	newArrival bool

	res *Result

	// threadBuf backs the threads pointer slice so recycled engines
	// reuse the refThreadState allocations.
	threadBuf []refThreadState
}

// reset prepares a (possibly recycled) refEngine for one run. Every field
// is either rebuilt from (tr, opts) or cleared in place, keeping map
// and slice capacity from previous runs.
func (e *refEngine) reset(tr *trace.Trace, opts Options) {
	e.tr, e.opts = tr, opts
	if e.mem == nil {
		e.mem = memmodel.New()
	} else {
		e.mem.Reset()
	}
	if e.locks == nil {
		e.locks = make(map[trace.LockID]*refLockState)
	} else {
		// Keep the entries: lock IDs recur across replays of one trace,
		// and lock() lazily revives whatever the next trace needs.
		for _, ls := range e.locks {
			ls.held = false
			ls.freeAt = 0
		}
	}

	nev, nt := len(tr.Events), tr.NumThreads
	e.res = &Result{
		EventEnd:     make([]vtime.Time, nev),
		EventStart:   make([]vtime.Time, nev),
		PerThreadCPU: make([]vtime.Duration, nt),
		readHashes:   make([]uint64, nt),
	}
	if cap(e.done) >= nev {
		e.done = e.done[:nev]
		clear(e.done)
	} else {
		e.done = make([]bool, nev)
	}
	if e.heldSets == nil {
		e.heldSets = make(map[int32][]trace.LockID)
	} else {
		clear(e.heldSets)
	}
	if cap(e.openSets) >= nt {
		e.openSets = e.openSets[:nt]
		for i := range e.openSets {
			e.openSets[i] = e.openSets[i][:0]
		}
	} else {
		e.openSets = make([][]int32, nt)
	}
	if e.barGroups != nil {
		clear(e.barGroups)
		clear(e.barArrived)
	}

	if cap(e.threadBuf) >= nt {
		e.threadBuf = e.threadBuf[:nt]
	} else {
		e.threadBuf = make([]refThreadState, nt)
	}
	e.threads = e.threads[:0]
	for t, evs := range tr.PerThread() {
		e.threadBuf[t] = refThreadState{id: int32(t), evs: evs}
		e.threads = append(e.threads, &e.threadBuf[t])
	}

	e.elscOrder = nil
	if e.elscPos != nil {
		clear(e.elscPos)
	}
	e.memOrder, e.memPos, e.memLastEnd = e.memOrder[:0], 0, 0
	e.newArrival = false
	if e.prereqs != nil {
		clear(e.prereqs)
	}
}

// takeHeldSet pops the thread's innermost open lockset acquisition and
// returns the member subset it actually acquired.
func (e *refEngine) takeHeldSet(ts *refThreadState, _ *trace.Event) ([]trace.LockID, bool) {
	stack := e.openSets[ts.id]
	if len(stack) == 0 {
		return nil, false
	}
	acq := stack[len(stack)-1]
	e.openSets[ts.id] = stack[:len(stack)-1]
	members := e.heldSets[acq]
	delete(e.heldSets, acq)
	return members, true
}

// runRef replays the trace under the given options on the reference engine.
func runRef(tr *trace.Trace, opts Options) (*Result, error) {
	e := new(refEngine)
	// The oracle's own copies of the engine's constants.
	e.jitterWindow = 200
	if opts.LocksetCost > 0 {
		e.dlsCheckCost = max(opts.LocksetCost/8, 1)
	}
	e.reset(tr, opts)
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.KBarrier {
			if e.barGroups == nil {
				e.barGroups = make(map[barKey][]int32)
				e.barArrived = make(map[barKey]map[int32]vtime.Time)
			}
			k := barKey{bar: tr.Events[i].Lock, gen: tr.Events[i].Value}
			e.barGroups[k] = append(e.barGroups[k], int32(i))
		}
	}
	for a, v := range tr.InitMem {
		e.mem.Store(a, v)
	}

	switch opts.Sched {
	case ELSCS:
		e.elscOrder = opts.lockOrder
		if e.elscOrder == nil {
			e.elscOrder = tr.LockOrder()
		}
		if e.elscPos == nil {
			e.elscPos = make(map[trace.LockID]int, len(e.elscOrder))
		}
	case MemS:
		// Deterministic-everything: the recorded order of every event.
		if cap(e.memOrder) < len(tr.Events) {
			e.memOrder = make([]int32, len(tr.Events))
		} else {
			e.memOrder = e.memOrder[:len(tr.Events)]
		}
		for i := range e.memOrder {
			e.memOrder[i] = int32(i)
		}
	}

	if len(tr.Constraints) > 0 {
		if e.prereqs == nil {
			e.prereqs = make(map[int32][]int32, len(tr.Constraints))
		}
		for _, c := range tr.Constraints {
			e.prereqs[c.Before] = append(e.prereqs[c.Before], c.After)
		}
	}

	if err := e.loop(); err != nil {
		return nil, err
	}
	res := e.res
	var total vtime.Time
	for i, ts := range e.threads {
		if ts.clock > total {
			total = ts.clock
		}
		res.PerThreadCPU[i] = ts.cpu
	}
	res.Total = vtime.Duration(total)
	res.FinalMem = e.mem.Snapshot()
	for t, h := range res.readHashes {
		// Mix per-thread digests order-independently across threads.
		x := h + uint64(t)*0x9e3779b97f4a7c15
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		res.ReadHash ^= x
	}
	return res, nil
}

// next returns the thread's next pending event index, or -1.
func (ts *refThreadState) next() int32 {
	if ts.pos >= len(ts.evs) {
		return -1
	}
	return ts.evs[ts.pos]
}

func (e *refEngine) loop() error {
	remaining := 0
	for _, ts := range e.threads {
		remaining += len(ts.evs)
	}
	for remaining > 0 {
		best := -1
		var bestStart vtime.Time
		var bestPrio vtime.Time
		for i, ts := range e.threads {
			idx := ts.next()
			if idx < 0 {
				continue
			}
			start, ok := e.eligible(ts, idx)
			if !ok {
				continue
			}
			prio := start
			if e.opts.Sched == OrigS && e.tr.Events[idx].Kind == trace.KLockAcq {
				prio = start.Add(e.jitter(idx))
			}
			if best == -1 || prio < bestPrio || (prio == bestPrio && i < best) {
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
		e.exec(e.threads[best], bestStart)
		remaining--
	}
	return nil
}

func (e *refEngine) stuckErr() error {
	var pend []string
	for _, ts := range e.threads {
		if idx := ts.next(); idx >= 0 {
			ev := &e.tr.Events[idx]
			pend = append(pend, fmt.Sprintf("T%d@ev%d(%v)", ts.id, idx, ev.Kind))
		}
	}
	return fmt.Errorf("replay stuck under %v: pending %v", e.opts.Sched, pend)
}

// jitter derives a deterministic pseudo-random arrival perturbation for an
// event from the replay seed (ORIG-S only).
func (e *refEngine) jitter(idx int32) vtime.Duration {
	h := uint64(e.opts.Seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return vtime.Duration(h % uint64(e.jitterWindow))
}

// eligible reports whether the event can execute now and the earliest
// virtual time it may start.
func (e *refEngine) eligible(ts *refThreadState, idx int32) (vtime.Time, bool) {
	ev := &e.tr.Events[idx]
	start := ts.clock

	for _, p := range e.prereqs[idx] {
		if !e.done[p] {
			return 0, false
		}
		if e.res.EventEnd[p] > start {
			start = e.res.EventEnd[p]
		}
	}

	// Barrier arrivals register unconditionally (before any enforcement
	// gate): other participants' eligibility depends on seeing this
	// thread parked at the episode.
	if ev.Kind == trace.KBarrier {
		k := barKey{bar: ev.Lock, gen: ev.Value}
		arr := e.barArrived[k]
		if arr == nil {
			arr = make(map[int32]vtime.Time)
			e.barArrived[k] = arr
		}
		if _, ok := arr[idx]; !ok {
			arr[idx] = start
			e.newArrival = true
		}
	}

	// MEM-S enforces a total order over all shared-memory access points:
	// in a trace whose compute segments summarize the instructions between
	// accesses, that pins every event to the recorded global sequence —
	// the whole execution serializes, which is exactly the 2x-20x
	// PinPlay/CoreDet regime the paper cites.
	if e.opts.Sched == MemS {
		if e.memPos >= len(e.memOrder) || e.memOrder[e.memPos] != idx {
			return 0, false
		}
		if e.memLastEnd > start {
			start = e.memLastEnd
		}
	}

	switch ev.Kind {
	case trace.KLockAcq:
		if order, ok := e.elscOrderFor(ev.Lock); ok {
			pos := e.elscPos[ev.Lock]
			if pos >= len(order) || order[pos] != idx {
				return 0, false
			}
		}
		if e.opts.Sched == SyncS {
			// Kendo-style input-driven determinism: a thread may acquire
			// only when its logical clock (its position in its own event
			// stream) is globally minimal, so fast threads wait for slow
			// ones at every acquisition — the enforced waiting Fig. 12
			// contrasts with ELSC. Threads already parked on a held lock
			// are exempt (their logical clocks advance while spinning).
			if wait, ok := e.kendoBarrier(ts); !ok {
				return 0, false
			} else if wait > start {
				start = wait
			}
		}
		ls := e.lock(ev.Lock)
		if ls.held {
			return 0, false
		}
		if ls.freeAt > start {
			start = ls.freeAt
		}
	case trace.KLocksetAcq:
		members := e.effectiveLockset(ev)
		for _, l := range members {
			ls := e.lock(l)
			if ls.held {
				return 0, false
			}
			if ls.freeAt > start {
				start = ls.freeAt
			}
		}
	case trace.KBarrier:
		k := barKey{bar: ev.Lock, gen: ev.Value}
		arr := e.barArrived[k]
		if len(arr) < len(e.barGroups[k]) {
			return 0, false // waiting for the other participants
		}
		for _, at := range arr {
			if at > start {
				start = at
			}
		}
	}
	return start, true
}

func (e *refEngine) elscOrderFor(l trace.LockID) ([]int32, bool) {
	if e.elscOrder == nil {
		return nil, false
	}
	order, ok := e.elscOrder[l]
	return order, ok
}

// kendoBarrier implements SYNC-S's logical-clock gate for a thread about
// to acquire a lock: the acquisition may start only once every other
// thread's progress counter (events completed) has reached this thread's,
// and no earlier than the moment the slowest of them got there. Threads
// parked on a held mutex are exempt — Kendo lets a spinning thread's
// logical clock keep advancing.
func (e *refEngine) kendoBarrier(ts *refThreadState) (vtime.Time, bool) {
	p := ts.pos
	var wait vtime.Time
	for _, o := range e.threads {
		if o == ts {
			continue
		}
		limit := p
		if limit > len(o.evs) {
			limit = len(o.evs)
		}
		if o.pos < limit {
			idx := o.next()
			ev := &e.tr.Events[idx]
			if ev.Kind == trace.KLockAcq && e.lock(ev.Lock).held {
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

// effectiveLockset returns the member locks actually acquired, applying
// the dynamic locking strategy when enabled: a source critical section
// that already finished (its release event executed) contributes no lock.
func (e *refEngine) effectiveLockset(ev *trace.Event) []trace.LockID {
	x := e.tr.Ext(ev)
	if !e.opts.DLS || len(x.Sources) != len(x.Locks) {
		return x.Locks
	}
	members := make([]trace.LockID, 0, len(x.Locks))
	for i, l := range x.Locks {
		src := x.Sources[i]
		if src >= 0 && e.done[src] {
			continue // source END flag is set: exclude its lock
		}
		members = append(members, l)
	}
	return members
}

func (e *refEngine) lock(l trace.LockID) *refLockState {
	ls, ok := e.locks[l]
	if !ok {
		ls = &refLockState{}
		e.locks[l] = ls
	}
	return ls
}

// exec runs one event starting at the given time.
func (e *refEngine) exec(ts *refThreadState, start vtime.Time) {
	idx := ts.next()
	ev := &e.tr.Events[idx]
	wait := start.Sub(ts.clock)
	if wait > 0 {
		if ev.Kind == trace.KLockAcq && ev.Spin {
			ts.cpu += wait
			e.res.SpinWaste += wait
		} else {
			e.res.Waited += wait
			if e.opts.Sched == SyncS && ev.Kind == trace.KLockAcq {
				e.res.EnforceWait += wait
			}
			if e.opts.Sched == MemS {
				e.res.EnforceWait += wait
			}
		}
	}
	cost := ev.Cost
	switch ev.Kind {
	case trace.KThreadStart, trace.KThreadEnd:
		cost = 0
	case trace.KLockAcq:
		e.lock(ev.Lock).held = true
		if e.elscPos != nil {
			if _, ok := e.elscOrderFor(ev.Lock); ok {
				e.elscPos[ev.Lock]++
			}
		}
	case trace.KLockRel:
		ls := e.lock(ev.Lock)
		ls.held = false
		ls.freeAt = start.Add(cost)
	case trace.KLocksetAcq:
		members := e.effectiveLockset(ev)
		for _, l := range members {
			e.lock(l).held = true
		}
		// Maintenance cost model: without DLS, RULE-4 bookkeeping walks
		// the full lockset; with DLS, each member costs one cheap END
		// check and only extra members beyond the degenerate single-lock
		// case pay full maintenance (a one-lock set is a plain mutex,
		// whose cost the event already carries).
		var maint vtime.Duration
		if e.opts.LocksetCost > 0 {
			if e.opts.DLS {
				maint = e.dlsCheckCost * vtime.Duration(len(e.tr.Ext(ev).Locks))
				if extra := len(members) - 1; extra > 0 {
					maint += e.opts.LocksetCost * vtime.Duration(extra)
				}
			} else {
				maint = e.opts.LocksetCost * vtime.Duration(len(e.tr.Ext(ev).Locks))
			}
		}
		cost += maint
		e.res.LocksetOverhead += maint
		e.res.LocksetAcqs++
		e.res.LocksetMembers += len(members)
		// Remember the acquired subset for the matching release.
		e.heldSets[idx] = members
		e.openSets[ts.id] = append(e.openSets[ts.id], idx)
	case trace.KLocksetRel:
		// The matching acquisition is the latest unreleased lockset-acq of
		// this thread; transform emits them well nested, and we track the
		// acquired subset by scanning our open map.
		if members, ok := e.takeHeldSet(ts, ev); ok {
			// Release-side maintenance mirrors acquisition: without DLS
			// the whole lockset is walked, with DLS only the members that
			// were actually acquired.
			var maint vtime.Duration
			if e.opts.LocksetCost > 0 {
				if e.opts.DLS {
					if extra := len(members) - 1; extra > 0 {
						maint = e.opts.LocksetCost * vtime.Duration(extra)
					}
				} else {
					maint = e.opts.LocksetCost * vtime.Duration(len(e.tr.Ext(ev).Locks))
				}
			}
			cost += maint
			e.res.LocksetOverhead += maint
			end := start.Add(cost)
			for _, l := range members {
				ls := e.lock(l)
				ls.held = false
				ls.freeAt = end
			}
		}
	case trace.KRead:
		// Re-execute the load against the replayed memory image and fold
		// the observed value into the thread's read digest.
		v := e.mem.Load(ev.Addr)
		h := e.res.readHashes[ts.id]
		h = h*1099511628211 + uint64(v) + uint64(ev.Addr)<<32
		e.res.readHashes[ts.id] = h
	case trace.KWrite:
		cur := e.mem.Load(ev.Addr)
		e.mem.Store(ev.Addr, ev.Op.Apply(cur, ev.Value))
	case trace.KSkip:
		for a, v := range e.tr.Ext(ev).Delta {
			e.mem.Store(a, v)
		}
	case trace.KSleep:
		// Time passes without CPU.
	}

	end := start.Add(cost)
	switch ev.Kind {
	case trace.KSleep, trace.KThreadStart, trace.KThreadEnd:
		// no CPU
	default:
		ts.cpu += cost
	}
	if e.opts.Sched == MemS {
		e.memPos++
		e.memLastEnd = end
	}
	ts.clock = end
	e.res.EventStart[idx] = start
	e.res.EventEnd[idx] = end
	e.done[idx] = true
	ts.pos++
}
