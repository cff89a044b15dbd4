// Package elision implements a speculative lock elision (SLE) baseline in
// the spirit of Rajwar & Goodman, the dynamic approach the paper contrasts
// PerfPlay against (Sec. 2.2, Sec. 7.1): critical sections execute
// speculatively without acquiring their lock, a data conflict aborts and
// rolls back the younger transaction, and repeated aborts fall back to a
// real acquisition.
//
// The paper's argument — and what this baseline lets the benches show — is
// that LE indeed removes ULCP serialization at runtime, but (i) it pays
// rollbacks wherever contention is real, (ii) hardware limitations cause
// false aborts, and (iii) it produces no debugging information: the
// programmer never learns which code region to fix.
package elision

import (
	"fmt"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// Options configures the elision run.
type Options struct {
	// Seed drives false-abort selection.
	Seed int64
	// maxRetries is the number of speculative attempts before a critical
	// section falls back to really acquiring its lock (zero selects 2).
	// Only the package's tests change it.
	maxRetries int
	// falseAbortPct is the percentage (0-100) of speculative sections
	// aborted by modelled hardware limitations — cache capacity,
	// unfriendly instructions — independent of real conflicts (zero
	// selects 2; negative disables them). Only the package's tests
	// change it.
	falseAbortPct int
}

// abortPenalty is the rollback cost charged per abort (pipeline flush
// plus re-fetch).
const abortPenalty vtime.Duration = 150

func (o Options) withDefaults() Options {
	if o.maxRetries == 0 {
		o.maxRetries = 2
	}
	if o.falseAbortPct == 0 {
		o.falseAbortPct = 2
	}
	return o
}

// Result is the outcome of an elided execution.
type Result struct {
	// Total is the virtual makespan under elision.
	Total vtime.Duration
	// Commits counts critical sections that completed speculatively.
	Commits int
	// Aborts counts rollbacks due to real data conflicts.
	Aborts int
	// FalseAborts counts rollbacks due to modelled hardware limits.
	FalseAborts int
	// Fallbacks counts critical sections that exhausted their retries and
	// acquired the lock for real.
	Fallbacks int
	// WastedWork is virtual time spent on rolled-back speculation.
	WastedWork vtime.Duration
	// FinalMem is the re-executed final memory image.
	FinalMem memmodel.Snapshot
}

// AbortRate returns aborts (real + false) per started transaction.
func (r *Result) AbortRate() float64 {
	started := r.Commits + r.Aborts + r.FalseAborts
	if started == 0 {
		return 0
	}
	return float64(r.Aborts+r.FalseAborts) / float64(started)
}

// spec is one in-flight speculative critical section.
type spec struct {
	thread   int32
	lock     trace.LockID
	start    vtime.Time
	acqPos   int // thread-local position of the acquisition event
	reads    map[memmodel.Addr]struct{}
	writes   map[memmodel.Addr]int64 // buffered stores (value after ops)
	workDone vtime.Duration
	retries  int
	fallback bool // holding the lock for real
}

type thread struct {
	id    int32
	evs   []int32
	pos   int
	clock vtime.Time
	// cs is the innermost in-flight critical section, if any. Nested
	// critical sections are flattened into the outer transaction, as flat
	// transactional memories do.
	cs    *spec
	depth int
}

type engine struct {
	tr      *trace.Trace
	opts    Options
	mem     *memmodel.Memory
	threads []*thread
	lockBy  map[trace.LockID]int32 // real holders (fallback mode)
	freeAt  map[trace.LockID]vtime.Time
	// retryCount tracks aborts per acquisition event so retries survive
	// the rewind.
	retryCount map[int32]int
	res        *Result
}

// Run executes the trace with every original lock elided.
//
// Transformed traces (lockset events) are rejected: elision is a baseline
// for the original execution.
func Run(tr *trace.Trace, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	e := &engine{
		tr:     tr,
		opts:   opts,
		mem:    memmodel.New(),
		lockBy: make(map[trace.LockID]int32),
		freeAt: make(map[trace.LockID]vtime.Time),
		res:    &Result{},
	}
	for a, v := range tr.InitMem {
		e.mem.Store(a, v)
	}
	for t, evs := range tr.PerThread() {
		e.threads = append(e.threads, &thread{id: int32(t), evs: evs})
	}
	for i := range tr.Events {
		if k := tr.Events[i].Kind; k == trace.KLocksetAcq || k == trace.KLocksetRel {
			return nil, fmt.Errorf("elision: transformed traces are not elidable")
		}
	}
	if err := e.loop(); err != nil {
		return nil, err
	}
	var total vtime.Time
	for _, th := range e.threads {
		if th.clock > total {
			total = th.clock
		}
	}
	e.res.Total = vtime.Duration(total)
	e.res.FinalMem = e.mem.Snapshot()
	return e.res, nil
}

func (e *engine) loop() error {
	// Aborts rewind a thread's position, so progress is re-derived each
	// pass rather than counted down.
	for {
		pending := false
		var best *thread
		for _, th := range e.threads {
			if th.pos >= len(th.evs) {
				continue
			}
			pending = true
			if !e.eligible(th) {
				continue
			}
			if best == nil || th.clock < best.clock {
				best = th
			}
		}
		if !pending {
			return nil
		}
		if best == nil {
			return fmt.Errorf("elision: stuck (all runnable threads blocked)")
		}
		e.exec(best)
	}
}

// eligible: a thread is blocked only while waiting for a real (fallback)
// lock holder.
func (e *engine) eligible(th *thread) bool {
	ev := &e.tr.Events[th.evs[th.pos]]
	if ev.Kind != trace.KLockAcq {
		return true
	}
	if th.cs != nil && th.cs.fallback {
		return true // nested acquisition inside a fallback section
	}
	wantReal := th.cs == nil && e.retriesFor(th) > e.opts.maxRetries
	if !wantReal {
		return true // speculative entry never waits
	}
	_, held := e.lockBy[ev.Lock]
	return !held
}

// retriesFor reports how many times the thread's pending critical section
// has already aborted (tracked via a side table keyed by acquisition
// event).
func (e *engine) retriesFor(th *thread) int {
	if e.retryCount == nil {
		return 0
	}
	return e.retryCount[th.evs[th.pos]]
}

// exec runs the thread's next event; it returns false when the event
// stream was rewound by an abort instead of consumed.
func (e *engine) exec(th *thread) bool {
	idx := th.evs[th.pos]
	ev := &e.tr.Events[idx]
	switch ev.Kind {
	case trace.KLockAcq:
		if th.cs != nil {
			// Nested acquisition: flatten into the outer transaction.
			th.depth++
			th.clock = th.clock.Add(ev.Cost)
			break
		}
		retries := e.retriesFor(th)
		sp := &spec{
			thread: th.id, lock: ev.Lock, start: th.clock, acqPos: th.pos,
			reads:   make(map[memmodel.Addr]struct{}),
			writes:  make(map[memmodel.Addr]int64),
			retries: retries,
		}
		if retries > e.opts.maxRetries {
			// Fallback: acquire for real and abort every speculative
			// section on this lock (the lock's cache line transfers).
			sp.fallback = true
			e.lockBy[ev.Lock] = th.id
			e.res.Fallbacks++
			for _, o := range e.threads {
				if o.cs != nil && !o.cs.fallback && o.cs.lock == ev.Lock {
					e.abort(o, false)
				}
			}
		}
		th.cs = sp
		th.depth = 1
		th.clock = th.clock.Add(ev.Cost)
	case trace.KLockRel:
		if th.cs == nil {
			th.clock = th.clock.Add(ev.Cost)
			break
		}
		th.depth--
		th.clock = th.clock.Add(ev.Cost)
		if th.depth > 0 {
			break
		}
		sp := th.cs
		if !sp.fallback && e.falseAbort(idx, sp.retries) {
			e.abort(th, true)
			return false
		}
		// Commit: apply buffered stores.
		for a, v := range sp.writes {
			e.mem.Store(a, v)
		}
		if sp.fallback {
			delete(e.lockBy, sp.lock)
			e.freeAt[sp.lock] = th.clock
		} else {
			e.res.Commits++
		}
		th.cs = nil
	case trace.KRead:
		th.clock = th.clock.Add(ev.Cost)
		if th.cs != nil && !th.cs.fallback {
			th.cs.reads[ev.Addr] = struct{}{}
			th.cs.workDone += ev.Cost
			if e.conflictAndResolve(th, ev.Addr, false) {
				return false
			}
		}
	case trace.KWrite:
		th.clock = th.clock.Add(ev.Cost)
		if th.cs != nil && !th.cs.fallback {
			cur, buffered := th.cs.writes[ev.Addr]
			if !buffered {
				cur = e.mem.Load(ev.Addr)
			}
			th.cs.writes[ev.Addr] = ev.Op.Apply(cur, ev.Value)
			th.cs.workDone += ev.Cost
			if e.conflictAndResolve(th, ev.Addr, true) {
				return false
			}
		} else {
			cur := e.mem.Load(ev.Addr)
			e.mem.Store(ev.Addr, ev.Op.Apply(cur, ev.Value))
		}
	case trace.KSkip:
		for a, v := range e.tr.Ext(ev).Delta {
			e.mem.Store(a, v)
		}
		th.clock = th.clock.Add(ev.Cost)
	default:
		th.clock = th.clock.Add(ev.Cost)
	}
	th.pos++
	return true
}

// conflictAndResolve checks the access against every other in-flight
// speculative section and aborts the younger party of any conflict. It
// reports whether th itself was aborted.
func (e *engine) conflictAndResolve(th *thread, addr memmodel.Addr, isWrite bool) bool {
	for _, o := range e.threads {
		if o == th || o.cs == nil || o.cs.fallback {
			continue
		}
		_, oReads := o.cs.reads[addr]
		_, oWrites := o.cs.writes[addr]
		conflict := oWrites || (isWrite && oReads)
		if !conflict {
			continue
		}
		// Requester-wins approximation: the younger transaction aborts.
		if o.cs.start > th.cs.start {
			e.abort(o, false)
		} else {
			e.abort(th, false)
			return true
		}
	}
	return false
}

// abort rolls a thread back to its critical section entry.
func (e *engine) abort(th *thread, hw bool) {
	sp := th.cs
	if sp == nil {
		return
	}
	if hw {
		e.res.FalseAborts++
	} else {
		e.res.Aborts++
	}
	e.res.WastedWork += sp.workDone
	if e.retryCount == nil {
		e.retryCount = make(map[int32]int)
	}
	acqIdx := th.evs[sp.acqPos]
	e.retryCount[acqIdx] = sp.retries + 1
	th.pos = sp.acqPos
	th.clock = th.clock.Add(abortPenalty)
	th.cs = nil
	th.depth = 0
}

// falseAbort deterministically selects ~falseAbortPct% of first-attempt
// commits for a hardware-style abort.
func (e *engine) falseAbort(idx int32, retries int) bool {
	if retries > 0 || e.opts.falseAbortPct <= 0 {
		return false
	}
	h := uint64(e.opts.Seed)*0x9e3779b97f4a7c15 + uint64(idx)*0xd6e8feb86659fd93
	h ^= h >> 32
	return int(h%100) < e.opts.falseAbortPct
}
