package sim

import (
	"fmt"
	"iter"
	"math/rand"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// Config controls the determinism seed of a run.
type Config struct {
	// Seed drives every tie-break and the per-thread RNGs. Identical
	// (program, Config) pairs produce identical traces.
	Seed int64
}

// The cost model of every recording: lockCost, unlockCost and memCost
// are the fixed virtual costs of the corresponding instructions, and
// syncCost covers condvar signal/barrier bookkeeping. Lock operations
// cost a few tens of ticks, so contention (thousands of ticks of
// critical section work) dominates — the regime the paper studies.
const (
	lockCost   vtime.Duration = 40
	unlockCost vtime.Duration = 20
	memCost    vtime.Duration = 15
	syncCost   vtime.Duration = 25
)

// Result is the outcome of a simulated run.
type Result struct {
	// Trace is the recorded execution.
	Trace *trace.Trace
	// Total is the virtual makespan (max thread completion time).
	Total vtime.Duration
	// PerThreadCPU is CPU time consumed per thread, including spin waste.
	PerThreadCPU []vtime.Duration
	// PerThreadWait is blocked (non-CPU) lock/cond waiting per thread.
	PerThreadWait []vtime.Duration
	// SpinWaste is total CPU burned spinning on spin locks.
	SpinWaste vtime.Duration
	// Waited is total blocked waiting time across threads.
	Waited vtime.Duration
}

// CPUTotal sums per-thread CPU time.
func (r *Result) CPUTotal() vtime.Duration {
	var s vtime.Duration
	for _, c := range r.PerThreadCPU {
		s += c
	}
	return s
}

type reqKind uint8

const (
	opInvalid reqKind = iota
	opCompute
	opLock
	opTryLock
	opUnlock
	opRead
	opWrite
	opSleep
	opWait
	opTimedWait
	opSignal
	opBroadcast
	opBarrier
	opSkip
)

type request struct {
	kind reqKind
	lock trace.LockID
	cond CondID
	bar  BarrierID
	addr memmodel.Addr
	val  int64
	wop  trace.WriteOp
	cost vtime.Duration
	site trace.SiteID
	fn   func(m *memmodel.Memory)
}

type response struct {
	val int64
	ok  bool
	now vtime.Time
}

// Thread is the handle a ThreadBody uses to execute simulated
// instructions. All methods are synchronous in virtual time.
//
// Each body runs as a coroutine of the goroutine that called Run: an
// instruction yields its request to the machine, and the machine stores
// the response in resp before it resumes the body.
type Thread struct {
	id    int32
	rng   *rand.Rand
	yield func(request) bool
	resp  response
	now   vtime.Time
}

// stopped is what do panics with when the machine has stopped the thread
// (Run is returning or panicking): it unwinds the body, deferred calls
// included, to the coroutine's wrapper, which recovers it.
type stopped struct{}

// ID returns the thread's index.
func (t *Thread) ID() int32 { return t.id }

// Now returns the thread's current virtual clock.
func (t *Thread) Now() vtime.Time { return t.now }

// Intn returns a deterministic per-thread pseudo-random int in [0, n).
func (t *Thread) Intn(n int) int { return t.rng.Intn(n) }

// Float64 returns a deterministic per-thread pseudo-random float in [0,1).
func (t *Thread) Float64() float64 { return t.rng.Float64() }

func (t *Thread) do(r request) response {
	if !t.yield(r) {
		panic(stopped{})
	}
	t.now = t.resp.now
	return t.resp
}

// requests is the coroutine of one thread: the body's instructions as a
// sequence of requests, ending when the body returns.
func (t *Thread) requests(body ThreadBody) iter.Seq[request] {
	return func(yield func(request) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					panic(r)
				}
			}
		}()
		body(t)
	}
}

// Compute burns d ticks of CPU with no shared access (a program segment).
func (t *Thread) Compute(d vtime.Duration) {
	if d <= 0 {
		return
	}
	t.do(request{kind: opCompute, cost: d})
}

// Sleep advances time by d without consuming CPU.
func (t *Thread) Sleep(d vtime.Duration) {
	if d <= 0 {
		return
	}
	t.do(request{kind: opSleep, cost: d})
}

// Lock acquires l, blocking (or spinning, per the lock's declaration)
// until available.
func (t *Thread) Lock(l trace.LockID, site trace.SiteID) {
	t.do(request{kind: opLock, lock: l, site: site})
}

// TryLock attempts to acquire l without waiting; it reports success.
func (t *Thread) TryLock(l trace.LockID, site trace.SiteID) bool {
	return t.do(request{kind: opTryLock, lock: l, site: site}).ok
}

// Unlock releases l.
func (t *Thread) Unlock(l trace.LockID, site trace.SiteID) {
	t.do(request{kind: opUnlock, lock: l, site: site})
}

// Read performs a shared load.
func (t *Thread) Read(a memmodel.Addr, site trace.SiteID) int64 {
	return t.do(request{kind: opRead, addr: a, site: site}).val
}

// Write performs a shared store of v.
func (t *Thread) Write(a memmodel.Addr, v int64, site trace.SiteID) {
	t.do(request{kind: opWrite, addr: a, val: v, wop: trace.WSet, site: site})
}

// Add performs a shared read-modify-write adding v (commutative).
func (t *Thread) Add(a memmodel.Addr, v int64, site trace.SiteID) {
	t.do(request{kind: opWrite, addr: a, val: v, wop: trace.WAdd, site: site})
}

// Or performs a shared bitwise-or of v (disjoint bit manipulation).
func (t *Thread) Or(a memmodel.Addr, v int64, site trace.SiteID) {
	t.do(request{kind: opWrite, addr: a, val: v, wop: trace.WOr, site: site})
}

// And performs a shared bitwise-and of v.
func (t *Thread) And(a memmodel.Addr, v int64, site trace.SiteID) {
	t.do(request{kind: opWrite, addr: a, val: v, wop: trace.WAnd, site: site})
}

// Wait releases l, sleeps until c is signalled, then re-acquires l —
// pthread_cond_wait semantics, including the re-acquire that the paper's
// Case 1 identifies as a null-lock source.
func (t *Thread) Wait(c CondID, l trace.LockID, site trace.SiteID) {
	t.do(request{kind: opWait, cond: c, lock: l, site: site})
}

// TimedWait is Wait with a timeout; it reports true if signalled and
// false on timeout (pthread_cond_timedwait returning ETIMEDOUT).
func (t *Thread) TimedWait(c CondID, l trace.LockID, d vtime.Duration, site trace.SiteID) bool {
	return t.do(request{kind: opTimedWait, cond: c, lock: l, cost: d, site: site}).ok
}

// Signal wakes one waiter of c.
func (t *Thread) Signal(c CondID, site trace.SiteID) {
	t.do(request{kind: opSignal, cond: c, site: site})
}

// Broadcast wakes all waiters of c.
func (t *Thread) Broadcast(c CondID, site trace.SiteID) {
	t.do(request{kind: opBroadcast, cond: c, site: site})
}

// Barrier blocks until all parties of b have arrived.
func (t *Thread) Barrier(b BarrierID, site trace.SiteID) {
	t.do(request{kind: opBarrier, bar: b, site: site})
}

// SkipRange executes fn against shared memory as a selectively-recorded
// range: the trace receives a single KSkip event holding the memory delta
// and elapsed cost, and the replayer restores the delta instead of
// re-executing (Sec. 5.1).
func (t *Thread) SkipRange(d vtime.Duration, fn func(m *memmodel.Memory)) {
	t.do(request{kind: opSkip, cost: d, fn: fn})
}

type blockKind uint8

const (
	blockNone blockKind = iota
	blockLock
	blockCond
)

type threadState struct {
	th *Thread
	// next resumes the thread's body until its next request, and reports
	// false once the body has returned.
	next      func() (request, bool)
	clock     vtime.Time
	cpu       vtime.Duration
	waitDur   vtime.Duration
	spinWaste vtime.Duration
	req       request
	hasReq    bool
	done      bool
	blocked   blockKind
	// arrival is the time the thread began waiting.
	arrival vtime.Time
	// deadline is the timed-wait deadline, or Infinity.
	deadline vtime.Time
	// condTimed marks a cond wait as timed.
	condTimed bool
	// wakeOK is the response value pending after a cond wake/timeout.
	wakeOK bool
}

type lockWaiter struct {
	tid     int32
	arrival vtime.Time
	// fromCond carries the pending cond-wait result through the
	// re-acquisition.
	fromCond bool
	ok       bool
	site     trace.SiteID
}

type lockState struct {
	heldBy int32
	queue  []lockWaiter
	// freeAt is the virtual time of the last release: a requester whose
	// clock lags behind it (its request is processed after the release
	// event) still cannot hold the lock before the previous holder let go.
	freeAt vtime.Time
}

type condWaiter struct {
	tid  int32
	lock trace.LockID
	site trace.SiteID
}

type barrierState struct {
	arrived    []int32
	maxAt      vtime.Time
	sites      []trace.SiteID
	generation int64
}

type machine struct {
	prog    *Program
	tr      *trace.Trace
	threads []*threadState
	locks   []lockState
	conds   [][]condWaiter
	bars    []barrierState
	active  int
	// chunks holds the recorded events until Run joins them into the
	// trace's array, and events counts them. See record.
	chunks [][]trace.Event
	events int
}

// maxChunk bounds a recorder chunk (384 KiB of events).
const maxChunk = 8192

// record appends an event to the recording. Events collect in chunks —
// each as large as everything recorded before it, up to maxChunk — and
// are copied once, into an array of exactly their number, when the run
// ends: an array grown by append is copied about five times on its way
// to 141k events (Go grows large slices by a quarter), each time onto
// fresh pages.
func (m *machine) record(e trace.Event) {
	n := len(m.chunks)
	if n == 0 || len(m.chunks[n-1]) == cap(m.chunks[n-1]) {
		m.chunks = append(m.chunks, make([]trace.Event, 0, min(max(m.events, 64), maxChunk)))
		n++
	}
	m.chunks[n-1] = append(m.chunks[n-1], e)
	m.events++
}

// Run executes the program to completion and returns the recorded trace
// and measurements. The thread bodies run as coroutines of the calling
// goroutine, one at a time, so a panic in a body — like a deadlock or a
// misuse the machine detects — panics out of Run on that goroutine, and
// every body still suspended is unwound first.
func Run(p *Program, cfg Config) *Result {
	return run(p, cfg, iter.Pull[request])
}

// run is Run over a given coroutine transport: pull starts a thread's
// request sequence suspended and returns the function that resumes it
// until its next request and the function that unwinds it. Production
// passes iter.Pull; the tests also pass a goroutine-and-channels
// implementation of the same signature, as the reference.
func run(p *Program, cfg Config, pull func(iter.Seq[request]) (next func() (request, bool), stop func())) *Result {
	m := &machine{
		prog:  p,
		tr:    trace.New(p.Name, p.NumThreads()),
		locks: make([]lockState, len(p.locks)+1),
		conds: make([][]condWaiter, len(p.conds)+1),
		bars:  make([]barrierState, len(p.barriers)+1),
	}
	m.tr.Sites = p.Sites
	m.tr.InitMem = p.Mem.Snapshot()
	for i := range m.locks {
		m.locks[i].heldBy = -1
	}
	for l := 1; l <= len(p.locks); l++ {
		if p.locks[l-1].spin {
			m.tr.SpinLocks[trace.LockID(l)] = true
		}
	}
	for a, name := range p.Mem.Names() {
		m.tr.MemNames[a] = name
	}

	for i, body := range p.bodies {
		th := &Thread{
			id:  int32(i),
			rng: rand.New(rand.NewSource(cfg.Seed ^ (int64(i)+1)*0x9e3779b97f4a7c)),
		}
		next, stop := pull(th.requests(body))
		// Whichever way run ends, no body outlives it: stop unwinds one
		// that is suspended and does nothing to one that has returned.
		defer stop()
		m.threads = append(m.threads, &threadState{th: th, next: next, deadline: vtime.Infinity})
		m.record(trace.Event{Thread: int32(i), Kind: trace.KThreadStart})
	}
	m.active = len(m.threads)
	for _, ts := range m.threads {
		m.fetch(ts)
	}
	m.loop()

	m.tr.Events = make([]trace.Event, 0, m.events)
	for _, c := range m.chunks {
		m.tr.Events = append(m.tr.Events, c...)
	}
	m.tr.FinalMem = p.Mem.Snapshot()
	res := &Result{Trace: m.tr}
	var total vtime.Time
	for _, ts := range m.threads {
		if ts.clock > total {
			total = ts.clock
		}
		res.PerThreadCPU = append(res.PerThreadCPU, ts.cpu)
		res.PerThreadWait = append(res.PerThreadWait, ts.waitDur)
		res.SpinWaste += ts.spinWaste
		res.Waited += ts.waitDur
	}
	res.Total = vtime.Duration(total)
	m.tr.TotalTime = res.Total
	return res
}

// fetch resumes a thread until its next request (or registers completion).
func (m *machine) fetch(ts *threadState) {
	r, ok := ts.next()
	if !ok {
		ts.done = true
		ts.hasReq = false
		m.active--
		m.record(trace.Event{Thread: ts.th.id, Kind: trace.KThreadEnd, Time: ts.clock})
		return
	}
	ts.req = r
	ts.hasReq = true
}

// respond completes the thread's current instruction and fetches the next.
func (m *machine) respond(ts *threadState, resp response) {
	ts.hasReq = false
	resp.now = ts.clock
	ts.th.resp = resp
	m.fetch(ts)
}

func (m *machine) loop() {
	for m.active > 0 {
		// Candidate 1: runnable thread with minimal clock.
		best := -1
		for i, ts := range m.threads {
			if !ts.hasReq || ts.done {
				continue
			}
			if best == -1 || ts.clock < m.threads[best].clock {
				best = i
			}
		}
		// Candidate 2: timed cond waiter with minimal deadline.
		timed := -1
		for i, ts := range m.threads {
			if ts.blocked == blockCond && ts.condTimed {
				if timed == -1 || ts.deadline < m.threads[timed].deadline {
					timed = i
				}
			}
		}
		switch {
		case best == -1 && timed == -1:
			m.deadlock()
			return
		case best == -1 || (timed != -1 && m.threads[timed].deadline <= m.threads[best].clock):
			m.fireTimeout(m.threads[timed])
		default:
			m.exec(m.threads[best])
		}
	}
}

func (m *machine) deadlock() {
	var stuck []string
	for i, ts := range m.threads {
		if !ts.done {
			stuck = append(stuck, fmt.Sprintf("T%d(blocked=%d)", i, ts.blocked))
		}
	}
	if len(stuck) == 0 {
		return
	}
	panic(fmt.Sprintf("sim: deadlock; stuck threads: %v", stuck))
}

// fireTimeout wakes a timed cond waiter at its deadline; per pthread
// semantics it must re-acquire the mutex before returning ETIMEDOUT.
func (m *machine) fireTimeout(ts *threadState) {
	c := ts.req.cond
	// Remove from the cond queue.
	q := m.conds[c]
	for i := range q {
		if q[i].tid == ts.th.id {
			m.conds[c] = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	wake := ts.deadline
	waited := wake.Sub(ts.arrival)
	ts.waitDur += waited
	ts.clock = wake
	// Record the wait as think-time so replays reproduce it: the paper
	// only guarantees partial-order fidelity for non-mutex semaphores
	// (Sec. 5.1), and a recorded sleep is exactly that.
	m.record(trace.Event{Thread: ts.th.id, Kind: trace.KSleep, Cost: waited, Time: wake, Site: ts.req.site})
	ts.blocked = blockNone
	ts.condTimed = false
	ts.deadline = vtime.Infinity
	m.acquire(ts, ts.req.lock, ts.req.site, true, false)
}

func (m *machine) exec(ts *threadState) {
	r := ts.req
	id := ts.th.id
	switch r.kind {
	case opCompute:
		ts.clock = ts.clock.Add(r.cost)
		ts.cpu += r.cost
		m.record(trace.Event{Thread: id, Kind: trace.KCompute, Cost: r.cost, Time: ts.clock, Site: r.site})
		m.respond(ts, response{})
	case opSleep:
		ts.clock = ts.clock.Add(r.cost)
		m.record(trace.Event{Thread: id, Kind: trace.KSleep, Cost: r.cost, Time: ts.clock, Site: r.site})
		m.respond(ts, response{})
	case opLock:
		m.prog.checkLock(r.lock)
		m.acquire(ts, r.lock, r.site, false, false)
	case opTryLock:
		m.prog.checkLock(r.lock)
		ls := &m.locks[r.lock]
		ts.clock = ts.clock.Add(lockCost)
		ts.cpu += lockCost
		// At the requester's instant the lock counts as held if the last
		// release lies in the requester's future.
		if ls.heldBy == -1 && ts.clock >= ls.freeAt {
			ls.heldBy = id
			m.record(trace.Event{Thread: id, Kind: trace.KLockAcq, Lock: r.lock, Cost: lockCost, Time: ts.clock, Site: r.site, Spin: m.prog.lockSpin(r.lock)})
			m.respond(ts, response{ok: true})
		} else {
			// Failed trylock: time passes, no sync event.
			m.record(trace.Event{Thread: id, Kind: trace.KCompute, Cost: lockCost, Time: ts.clock, Site: r.site})
			m.respond(ts, response{ok: false})
		}
	case opUnlock:
		m.release(ts, r.lock, r.site)
		m.respond(ts, response{})
	case opRead:
		v := m.prog.Mem.Load(r.addr)
		ts.clock = ts.clock.Add(memCost)
		ts.cpu += memCost
		m.record(trace.Event{Thread: id, Kind: trace.KRead, Addr: r.addr, Value: v, Cost: memCost, Time: ts.clock, Site: r.site})
		m.respond(ts, response{val: v})
	case opWrite:
		cur := m.prog.Mem.Load(r.addr)
		m.prog.Mem.Store(r.addr, r.wop.Apply(cur, r.val))
		ts.clock = ts.clock.Add(memCost)
		ts.cpu += memCost
		m.record(trace.Event{Thread: id, Kind: trace.KWrite, Addr: r.addr, Value: r.val, Op: r.wop, Cost: memCost, Time: ts.clock, Site: r.site})
		m.respond(ts, response{})
	case opWait, opTimedWait:
		m.prog.checkCond(r.cond)
		// Release the mutex (recorded, as in pthread_cond_wait).
		m.release(ts, r.lock, r.site)
		ts.hasReq = false
		ts.blocked = blockCond
		ts.arrival = ts.clock
		if r.kind == opTimedWait {
			ts.condTimed = true
			ts.deadline = ts.clock.Add(r.cost)
		}
		m.conds[r.cond] = append(m.conds[r.cond], condWaiter{tid: id, lock: r.lock, site: r.site})
		// No respond: the thread stays parked until signal/timeout.
	case opSignal:
		m.prog.checkCond(r.cond)
		ts.clock = ts.clock.Add(syncCost)
		ts.cpu += syncCost
		m.record(trace.Event{Thread: id, Kind: trace.KCompute, Cost: syncCost, Time: ts.clock, Site: r.site})
		m.wakeCond(r.cond, 1, ts.clock)
		m.respond(ts, response{})
	case opBroadcast:
		m.prog.checkCond(r.cond)
		ts.clock = ts.clock.Add(syncCost)
		ts.cpu += syncCost
		m.record(trace.Event{Thread: id, Kind: trace.KCompute, Cost: syncCost, Time: ts.clock, Site: r.site})
		m.wakeCond(r.cond, len(m.conds[r.cond]), ts.clock)
		m.respond(ts, response{})
	case opBarrier:
		m.prog.checkBarrier(r.bar)
		bs := &m.bars[r.bar]
		bs.arrived = append(bs.arrived, id)
		bs.sites = append(bs.sites, r.site)
		if ts.clock > bs.maxAt {
			bs.maxAt = ts.clock
		}
		ts.hasReq = false
		ts.blocked = blockCond
		ts.arrival = ts.clock
		if len(bs.arrived) >= m.prog.barriers[r.bar-1].parties {
			// Everyone arrived: release all at the max arrival time. Each
			// participant records a KBarrier event tagged with the
			// episode number so replays re-derive the wait semantically.
			rel := bs.maxAt.Add(syncCost)
			gen := bs.generation
			bs.maxAt = 0
			bs.generation++
			for i, tid := range bs.arrived {
				wts := m.threads[tid]
				wts.waitDur += rel.Sub(wts.clock)
				m.record(trace.Event{
					Thread: tid, Kind: trace.KBarrier,
					Lock: trace.LockID(r.bar), Value: int64(gen),
					Cost: syncCost, Time: rel, Site: bs.sites[i],
				})
				wts.clock = rel
				wts.blocked = blockNone
				m.respond(wts, response{})
			}
			// respond only fetches, so nobody arrived meanwhile: the next
			// episode reuses both arrays.
			bs.arrived, bs.sites = bs.arrived[:0], bs.sites[:0]
		}
		// Otherwise stay parked; the last arrival releases us.
	case opSkip:
		before := m.prog.Mem.Snapshot()
		if r.fn != nil {
			r.fn(m.prog.Mem)
		}
		after := m.prog.Mem.Snapshot()
		delta := memmodel.Snapshot{}
		for _, a := range before.Diff(after) {
			delta[a] = after[a]
		}
		ts.clock = ts.clock.Add(r.cost)
		ts.cpu += r.cost
		m.record(trace.Event{Thread: id, Kind: trace.KSkip, Cost: r.cost, Time: ts.clock, Site: r.site,
			Ext: m.tr.AddExt(trace.EventExt{Delta: delta})})
		m.respond(ts, response{})
	default:
		panic(fmt.Sprintf("sim: unknown request kind %d", r.kind))
	}
}

// acquire grants the lock immediately or parks the thread on its queue.
// fromCond marks re-acquisition after a cond wake/timeout; ok is the
// pending cond result to deliver once the lock is re-held.
func (m *machine) acquire(ts *threadState, l trace.LockID, site trace.SiteID, fromCond, ok bool) {
	ls := &m.locks[l]
	if ls.heldBy == -1 {
		ls.heldBy = ts.th.id
		start := vtime.Max(ts.clock, ls.freeAt)
		waited := start.Sub(ts.clock)
		if waited > 0 {
			if m.prog.lockSpin(l) {
				ts.cpu += waited
				ts.spinWaste += waited
			} else {
				ts.waitDur += waited
			}
		}
		ts.clock = start.Add(lockCost)
		ts.cpu += lockCost
		m.record(trace.Event{Thread: ts.th.id, Kind: trace.KLockAcq, Lock: l, Cost: lockCost, Time: ts.clock, Site: site, Spin: m.prog.lockSpin(l)})
		m.respond(ts, response{ok: ok})
		return
	}
	ts.hasReq = false
	ts.blocked = blockLock
	ts.arrival = ts.clock
	ls.queue = append(ls.queue, lockWaiter{tid: ts.th.id, arrival: ts.clock, fromCond: fromCond, ok: ok, site: site})
}

// release unlocks l at ts's clock and hands it to the earliest waiter.
func (m *machine) release(ts *threadState, l trace.LockID, site trace.SiteID) {
	m.prog.checkLock(l)
	ls := &m.locks[l]
	if ls.heldBy != ts.th.id {
		panic(fmt.Sprintf("sim: T%d unlocks %v held by T%d", ts.th.id, l, ls.heldBy))
	}
	ts.clock = ts.clock.Add(unlockCost)
	ts.cpu += unlockCost
	m.record(trace.Event{Thread: ts.th.id, Kind: trace.KLockRel, Lock: l, Cost: unlockCost, Time: ts.clock, Site: site})
	ls.heldBy = -1
	ls.freeAt = ts.clock
	if len(ls.queue) == 0 {
		return
	}
	// Wake the earliest-arrival waiter (FIFO in time, tie-break by id).
	q, k := ls.queue, 0
	for i := 1; i < len(q); i++ {
		if q[i].arrival < q[k].arrival || q[i].arrival == q[k].arrival && q[i].tid < q[k].tid {
			k = i
		}
	}
	w := q[k]
	ls.queue = append(q[:k], q[k+1:]...)
	wts := m.threads[w.tid]
	wake := vtime.Max(w.arrival, ts.clock)
	waited := wake.Sub(w.arrival)
	if m.prog.lockSpin(l) {
		wts.cpu += waited
		wts.spinWaste += waited
	} else {
		wts.waitDur += waited
	}
	wts.clock = wake.Add(lockCost)
	wts.cpu += lockCost
	wts.blocked = blockNone
	wts.condTimed = false
	wts.deadline = vtime.Infinity
	ls.heldBy = w.tid
	m.record(trace.Event{Thread: w.tid, Kind: trace.KLockAcq, Lock: l, Cost: lockCost, Time: wts.clock, Site: w.site, Spin: m.prog.lockSpin(l)})
	m.respond(wts, response{ok: w.ok})
}

// wakeCond moves up to n cond waiters into lock re-acquisition at time at.
func (m *machine) wakeCond(c CondID, n int, at vtime.Time) {
	for ; n > 0 && len(m.conds[c]) > 0; n-- {
		w := m.conds[c][0]
		m.conds[c] = m.conds[c][1:]
		wts := m.threads[w.tid]
		wake := vtime.Max(wts.clock, at)
		waited := wake.Sub(wts.arrival)
		wts.waitDur += waited
		wts.clock = wake
		if waited > 0 {
			m.record(trace.Event{Thread: w.tid, Kind: trace.KSleep, Cost: waited, Time: wake, Site: w.site})
		}
		wts.blocked = blockNone
		wts.condTimed = false
		wts.deadline = vtime.Infinity
		m.acquire(wts, w.lock, w.site, true, true)
	}
}
