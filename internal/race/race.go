// Package race implements a happens-before data-race detector over a
// recording, as recorded or under its ULCP-free plan.
//
// Theorem 1 guarantees that the ULCP-free schedule either preserves the
// original program semantics or surfaces interleaving-sensitive data
// races between the segments the transformation made concurrent. This
// detector is how PerfPlay surfaces them: it linearizes the replay of the
// recording under the plan and runs a DJIT+-style vector-clock analysis
// whose synchronization edges are original locks, auxiliary lockset
// members, and the transformation's explicit happens-before constraints.
package race

import (
	"fmt"
	"sort"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// Race is one detected conflict: two accesses to the same address, at
// least one a write, unordered by happens-before.
type Race struct {
	Addr     memmodel.Addr
	AddrName string
	// First and Second are the global event indices of the two accesses
	// in linearized order.
	First, Second int32
	Threads       [2]int32
	Sites         [2]trace.Site
	// WriteWrite distinguishes write/write from read/write races.
	WriteWrite bool
}

// String renders a one-line report.
func (r Race) String() string {
	kind := "read/write"
	if r.WriteWrite {
		kind = "write/write"
	}
	name := r.AddrName
	if name == "" {
		name = fmt.Sprintf("addr#%d", r.Addr)
	}
	return fmt.Sprintf("%s race on %s: T%d@%s vs T%d@%s",
		kind, name, r.Threads[0], r.Sites[0], r.Threads[1], r.Sites[1])
}

// Detect runs the analysis over the events of tr in the given
// linearization (event indices in execution order, e.g. sorted by a
// replay's start times). A nil order uses trace order. A nil plan reads
// the recording as recorded; under a plan replay.Run accepted for tr, a
// section's lock operations act on its lockset, Locks[Off[i]:Off[i+1]]
// (nothing if empty), and the plan's constraints follow the trace's. At
// most limit races are returned (0 means no limit); duplicates per
// (address, site pair) are suppressed.
func Detect(tr *trace.Trace, plan *trace.Plan, order []int32, limit int) []Race {
	d := detector{tr: tr, plan: plan, n: tr.NumThreads, limit: limit}
	d.lay()
	if order == nil {
		order = make([]int32, len(tr.Events))
		for i := range order {
			order[i] = int32(i)
		}
	}
	for _, idx := range order {
		if d.step(idx) {
			break
		}
	}
	races := d.races
	sort.Slice(races, func(i, j int) bool {
		if races[i].Addr != races[j].Addr {
			return races[i].Addr < races[j].Addr
		}
		return races[i].First < races[j].First
	})
	return races
}

// detector is Detect's state. lay gives every lock, memory cell, barrier
// episode and constraint source a dense slot before the walk, so step
// indexes slices only. Every vector clock is a row of n components in a
// flat arena: thread t's is threadClk[t*n:(t+1)*n], and likewise for a
// lock's, a constraint source's and a cell's.
type detector struct {
	tr    *trace.Trace
	plan  *trace.Plan
	n     int
	limit int

	// slot[i] is event i's cell (KRead, KWrite), its lock (KLockAcq,
	// KLockRel as recorded), its critical section (KLockAcq, KLockRel
	// under a plan) or its barrier episode (KBarrier).
	slot []int32
	// member[k] is the lock slot of plan.Locks[k].
	member []int32

	threadClk []int64
	// lockClk holds each lock's clock at its latest release; a lock never
	// released holds zeros, which a join leaves alone.
	lockClk []int64
	// cellClk holds two rows per cell, the clock component of each
	// thread's last read, then of its last write; cellLast parallels it
	// with those accesses' event indices.
	cellClk  []int64
	cellLast []int32

	// Constraints in CSR form by target: event i joins the clocks of the
	// source slots preSrc[preOff[i]:preOff[i+1]]. srcOf[i] is 1 + event
	// i's source slot, or 0; srcClk holds each source's clock as it
	// completed (zeros until then). All nil without constraints.
	preOff, preSrc, srcOf []int32
	srcClk                []int64

	// Barrier episode e's arrivals so far are members[epOff[e]:][:arrived[e]],
	// and it completes at its member count, epOff[e+1]-epOff[e]. joined
	// is scratch for the episode-wide maximum.
	epOff, arrived, members []int32
	joined                  []int64

	races []Race
	seen  map[raceKey]struct{}
}

// raceKey is what a report is deduplicated on.
type raceKey struct {
	addr          memmodel.Addr
	first, second trace.SiteID
	ww            bool
}

// barKey names a barrier episode: a barrier and its generation.
type barKey struct {
	bar trace.LockID
	gen int64
}

// slots numbers keys densely in first-seen order. A key below
// len(dense) is found by index (slot+1; 0 is none), any other in a map.
type slots[K ~int32 | ~uint32] struct {
	dense []int32
	other map[K]int32
	n     int32
}

// get returns k's slot, handing out the next one on first sight.
func (s *slots[K]) get(k K) int32 {
	if uint64(k) < uint64(len(s.dense)) {
		if s.dense[k] == 0 {
			s.n++
			s.dense[k] = s.n
		}
		return s.dense[k] - 1
	}
	v, ok := s.other[k]
	if !ok {
		if s.other == nil {
			s.other = make(map[K]int32)
		}
		v = s.n
		s.other[k] = v
		s.n++
	}
	return v
}

// lay sizes and fills the slot tables and arenas in two passes over the
// events: the first sizes the dense tables, the second assigns slots.
// Addresses and (as recorded) lock IDs are dense from 1, so a key below
// a bound linear in the trace's size indexes an array; anything past it
// costs a map entry, never an array that long. Under a plan every
// lockset member is an auxiliary lock whose ordinal is at most the
// member count (as replay.Run checks), and the ordinal is its key.
func (d *detector) lay() {
	tr, plan, n := d.tr, d.plan, d.n
	nev := len(tr.Events)
	bound := nev + len(tr.InitMem)
	naddr, nlock, nbar := 0, 0, 0
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KRead, trace.KWrite:
			if a := int(e.Addr); a < bound {
				naddr = max(naddr, a+1)
			}
		case trace.KLockAcq, trace.KLockRel:
			if l := int(e.Lock); plan == nil && l >= 0 && l < bound {
				nlock = max(nlock, l+1)
			}
		case trace.KBarrier:
			nbar++
		}
	}
	if plan != nil {
		nlock = len(plan.Locks)
	}

	d.slot = make([]int32, nev)
	cells := slots[memmodel.Addr]{dense: make([]int32, naddr)}
	locks := slots[trace.LockID]{dense: make([]int32, nlock)}
	var episodes map[barKey]int32
	var last barKey
	ep := int32(-1) // last's episode
	if nbar > 0 {
		episodes = make(map[barKey]int32)
		d.arrived = make([]int32, 0, nbar)
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KRead, trace.KWrite:
			d.slot[i] = cells.get(e.Addr)
		case trace.KLockAcq, trace.KLockRel:
			if plan == nil {
				d.slot[i] = locks.get(e.Lock)
			}
		case trace.KBarrier:
			// An episode's arrivals tend to come together, so the map is
			// asked only when the episode changes.
			if k := (barKey{e.Lock, e.Value}); ep < 0 || k != last {
				var ok bool
				if ep, ok = episodes[k]; !ok {
					ep = int32(len(d.arrived))
					episodes[k] = ep
					d.arrived = append(d.arrived, 0)
				}
				last = k
			}
			d.arrived[ep]++
			d.slot[i] = ep
		}
	}
	if plan != nil {
		for s := range plan.Acq {
			d.slot[plan.Acq[s]], d.slot[plan.Rel[s]] = int32(s), int32(s)
		}
		d.member = make([]int32, len(plan.Locks))
		for k, l := range plan.Locks {
			d.member[k] = locks.get(l - trace.AuxLockBase - 1)
		}
	}
	if nbar > 0 {
		// arrived counted each episode's members; it becomes the
		// arrivals so far once the offsets are laid.
		d.epOff = make([]int32, len(d.arrived)+1)
		for e, m := range d.arrived {
			d.epOff[e+1] = d.epOff[e] + m
		}
		clear(d.arrived)
		d.members = make([]int32, nbar)
		d.joined = make([]int64, n)
	}

	d.threadClk = make([]int64, n*n)
	for t := 0; t < n; t++ {
		d.threadClk[t*n+t] = 1
	}
	d.lockClk = make([]int64, int(locks.n)*n)
	d.cellClk = make([]int64, 2*int(cells.n)*n)
	d.cellLast = make([]int32, 2*int(cells.n)*n)

	cons := [2][]trace.Constraint{tr.Constraints}
	if plan != nil {
		cons[1] = plan.Constraints
	}
	if len(cons[0])+len(cons[1]) == 0 {
		return
	}
	d.preOff = make([]int32, nev+1)
	d.preSrc = make([]int32, len(cons[0])+len(cons[1]))
	d.srcOf = make([]int32, nev)
	nsrc := int32(0)
	for _, cs := range cons {
		for _, c := range cs {
			d.preOff[c.Before]++
			if d.srcOf[c.After] == 0 {
				nsrc++
				d.srcOf[c.After] = nsrc
			}
		}
	}
	// Prefix sums leave preOff[i] at the end of i's range; filling
	// backwards walks it down to the start, which is where i+1's range
	// must end.
	for i := 1; i <= nev; i++ {
		d.preOff[i] += d.preOff[i-1]
	}
	for _, cs := range cons {
		for _, c := range cs {
			d.preOff[c.Before]--
			d.preSrc[d.preOff[c.Before]] = d.srcOf[c.After] - 1
		}
	}
	d.srcClk = make([]int64, int(nsrc)*n)
}

// clock returns thread t's clock.
func (d *detector) clock(t int32) []int64 {
	return d.threadClk[int(t)*d.n : (int(t)+1)*d.n]
}

// join sets c to the component-wise maximum of c and o.
func join(c, o []int64) {
	o = o[:len(c)]
	for i, x := range o {
		if x > c[i] {
			c[i] = x
		}
	}
}

// step runs event idx and reports whether the race limit is reached.
func (d *detector) step(idx int32) bool {
	n := d.n
	e := &d.tr.Events[idx]
	t := e.Thread
	vc := d.clock(t)
	// Constraint edges join the source's completion clock.
	if d.preOff != nil {
		for _, s := range d.preSrc[d.preOff[idx]:d.preOff[idx+1]] {
			join(vc, d.srcClk[int(s)*n:])
		}
	}
	switch e.Kind {
	case trace.KLockAcq, trace.KLockRel:
		locks := d.slot[idx : idx+1]
		if d.plan != nil {
			s := d.slot[idx]
			locks = d.member[d.plan.Off[s]:d.plan.Off[s+1]]
		}
		if e.Kind == trace.KLockAcq {
			for _, l := range locks {
				join(vc, d.lockClk[int(l)*n:])
			}
		} else if len(locks) > 0 {
			for _, l := range locks {
				copy(d.lockClk[int(l)*n:], vc)
			}
			vc[t]++
		}
	case trace.KBarrier:
		// When the last member arrives, every participant's clock joins
		// the episode-wide maximum: all post-barrier code happens after
		// all pre-barrier code.
		ep := d.slot[idx]
		m := d.members[d.epOff[ep]:d.epOff[ep+1]]
		m[d.arrived[ep]] = t
		if d.arrived[ep]++; int(d.arrived[ep]) == len(m) {
			d.arrived[ep] = 0
			clear(d.joined)
			for _, o := range m {
				join(d.joined, d.clock(o))
			}
			for _, o := range m {
				c := d.clock(o)
				join(c, d.joined)
				c[o]++
			}
		}
	case trace.KRead, trace.KWrite:
		c := int(d.slot[idx]) * 2 * n
		rd, wr := d.cellClk[c:c+n], d.cellClk[c+n:c+2*n]
		lastRd, lastWr := d.cellLast[c:c+n], d.cellLast[c+n:c+2*n]
		ww := e.Kind == trace.KWrite
		for o := range int32(n) {
			if o == t {
				continue
			}
			if wr[o] > vc[o] {
				d.report(e.Addr, lastWr[o], idx, ww)
			}
			if ww && rd[o] > vc[o] {
				d.report(e.Addr, lastRd[o], idx, false)
			}
		}
		if ww {
			wr[t], lastWr[t] = vc[t], idx
		} else {
			rd[t], lastRd[t] = vc[t], idx
		}
	}
	if d.srcOf != nil {
		if s := d.srcOf[idx]; s != 0 {
			copy(d.srcClk[int(s-1)*n:], vc)
			vc[t]++
		}
	}
	return d.limit > 0 && len(d.races) >= d.limit
}

// report records a race between events first and second on addr unless
// its (address, site pair, kind) was reported already.
func (d *detector) report(addr memmodel.Addr, first, second int32, ww bool) {
	tr := d.tr
	e1, e2 := &tr.Events[first], &tr.Events[second]
	k := raceKey{addr, e1.Site, e2.Site, ww}
	if _, dup := d.seen[k]; dup {
		return
	}
	if d.seen == nil {
		// Under a limit the walk stops after the event that reaches it,
		// which adds at most 2(n-1) races.
		hint := 0
		if d.limit > 0 {
			hint = min(d.limit+2*d.n, 64)
		}
		d.seen = make(map[raceKey]struct{}, hint)
		d.races = make([]Race, 0, hint)
	}
	d.seen[k] = struct{}{}
	r := Race{
		Addr: addr, AddrName: tr.MemNames[addr],
		First: first, Second: second,
		Threads:    [2]int32{e1.Thread, e2.Thread},
		WriteWrite: ww,
	}
	if tr.Sites != nil {
		r.Sites[0] = tr.Sites.At(e1.Site)
		r.Sites[1] = tr.Sites.At(e2.Site)
	}
	d.races = append(d.races, r)
}

// OrderByStart builds a linearization of the trace's events from per-event
// start times (as produced by a replay), breaking ties by event index.
// Each thread's starts never decrease, so a merge of the per-thread runs
// would also do, but a prototype of one read level with this stable sort
// on daemon-reuse-shaped replays, and slices.SortFunc on (start, index)
// took 2.4 times as long (replay order is nearly sorted, which the
// stable sort's insertion runs suit). The sort stays until a measured
// replacement beats it.
func OrderByStart(starts []vtime.Time) []int32 {
	order := make([]int32, len(starts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return starts[order[a]] < starts[order[b]]
	})
	return order
}
