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
	"slices"
	"sort"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
	"perfplay/internal/vclock"
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

// epoch records the per-thread clock of the last access of each kind.
type accessState struct {
	readVC  vclock.VC // last read clock per thread
	writeVC vclock.VC // last write clock per thread
	lastRd  []int32   // event index of each thread's last read
	lastWr  []int32   // event index of each thread's last write
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
	n := tr.NumThreads
	if order == nil {
		order = make([]int32, len(tr.Events))
		for i := range order {
			order[i] = int32(i)
		}
	}

	threadVC := make([]vclock.VC, n)
	for i := range threadVC {
		threadVC[i] = vclock.New(n)
		threadVC[i].Tick(int32(i))
	}
	lockVC := make(map[trace.LockID]vclock.VC)
	// Completion clocks of constraint sources, captured when executed.
	consSrc := make(map[int32]vclock.VC)
	wanted := make(map[int32]bool)
	prereq := make(map[int32][]int32)
	var sec []int32 // 1 + the plan's section whose boundary event i is
	cons := tr.Constraints
	if plan != nil {
		sec = make([]int32, len(tr.Events))
		for i := range plan.Acq {
			sec[plan.Acq[i]], sec[plan.Rel[i]] = int32(i)+1, int32(i)+1
		}
		cons = slices.Concat(cons, plan.Constraints)
	}
	for _, c := range cons {
		wanted[c.After] = true
		prereq[c.Before] = append(prereq[c.Before], c.After)
	}

	// Barrier episodes: member event indices per (barrier, generation),
	// and arrivals seen so far. When the last member is processed, every
	// participant's clock joins the episode-wide maximum: all post-barrier
	// code happens after all pre-barrier code.
	type barKey struct {
		bar trace.LockID
		gen int64
	}
	barGroups := make(map[barKey]int)
	for i := range tr.Events {
		if tr.Events[i].Kind == trace.KBarrier {
			barGroups[barKey{tr.Events[i].Lock, tr.Events[i].Value}]++
		}
	}
	barMembers := make(map[barKey][]int32)

	mem := make(map[memmodel.Addr]*accessState)
	state := func(a memmodel.Addr) *accessState {
		st, ok := mem[a]
		if !ok {
			st = &accessState{
				readVC: vclock.New(n), writeVC: vclock.New(n),
				lastRd: make([]int32, n), lastWr: make([]int32, n),
			}
			for i := range st.lastRd {
				st.lastRd[i], st.lastWr[i] = -1, -1
			}
			mem[a] = st
		}
		return st
	}

	var races []Race
	seen := make(map[string]bool)
	report := func(addr memmodel.Addr, first, second int32, ww bool) {
		e1, e2 := &tr.Events[first], &tr.Events[second]
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
		key := fmt.Sprintf("%d/%d/%d/%v", addr, e1.Site, e2.Site, ww)
		if seen[key] {
			return
		}
		seen[key] = true
		races = append(races, r)
	}

	for _, idx := range order {
		e := &tr.Events[idx]
		t := e.Thread
		vc := threadVC[t]
		// Constraint edges join the source's completion clock.
		for _, p := range prereq[idx] {
			if src, ok := consSrc[p]; ok {
				vc.Join(src)
			}
		}
		switch e.Kind {
		case trace.KLockAcq, trace.KLockRel:
			locks := []trace.LockID{e.Lock}
			if sec != nil {
				s := sec[idx] - 1
				locks = plan.Locks[plan.Off[s]:plan.Off[s+1]]
			}
			if e.Kind == trace.KLockAcq {
				for _, l := range locks {
					if lv, ok := lockVC[l]; ok {
						vc.Join(lv)
					}
				}
			} else if len(locks) > 0 {
				for _, l := range locks {
					lockVC[l] = vc.Copy()
				}
				vc.Tick(t)
			}
		case trace.KBarrier:
			k := barKey{e.Lock, e.Value}
			barMembers[k] = append(barMembers[k], t)
			if len(barMembers[k]) == barGroups[k] {
				joined := vclock.New(n)
				for _, m := range barMembers[k] {
					joined.Join(threadVC[m])
				}
				for _, m := range barMembers[k] {
					threadVC[m].Join(joined)
					threadVC[m].Tick(m)
				}
				delete(barMembers, k)
			}
		case trace.KRead:
			st := state(e.Addr)
			for o := int32(0); o < int32(n); o++ {
				if o != t && st.writeVC.At(o) > vc.At(o) {
					report(e.Addr, st.lastWr[o], idx, false)
				}
			}
			st.readVC[t] = vc.At(t)
			st.lastRd[t] = idx
		case trace.KWrite:
			st := state(e.Addr)
			for o := int32(0); o < int32(n); o++ {
				if o == t {
					continue
				}
				if st.writeVC.At(o) > vc.At(o) {
					report(e.Addr, st.lastWr[o], idx, true)
				}
				if st.readVC.At(o) > vc.At(o) {
					report(e.Addr, st.lastRd[o], idx, false)
				}
			}
			st.writeVC[t] = vc.At(t)
			st.lastWr[t] = idx
		}
		if wanted[idx] {
			consSrc[idx] = vc.Copy()
			vc.Tick(t)
		}
		if limit > 0 && len(races) >= limit {
			break
		}
	}
	sort.Slice(races, func(i, j int) bool {
		if races[i].Addr != races[j].Addr {
			return races[i].Addr < races[j].Addr
		}
		return races[i].First < races[j].First
	})
	return races
}

// OrderByStart builds a linearization of the trace's events from per-event
// start times (as produced by a replay), breaking ties by event index.
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
