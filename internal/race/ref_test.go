package race

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"perfplay/internal/memmodel"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/simtest"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// accessState is one address's last accesses: per thread, the clock
// component and event index of its last read and of its last write.
type accessState struct {
	readVC  refVC   // last read clock per thread
	writeVC refVC   // last write clock per thread
	lastRd  []int32 // event index of each thread's last read
	lastWr  []int32 // event index of each thread's last write
}

// detectMapRef is Detect as it was written first, over maps keyed by
// event, lock and address, and it is the oracle Detect is held to. It
// runs the analysis over the events of tr in the given
// linearization (event indices in execution order, e.g. sorted by a
// replay's start times). A nil order uses trace order. A nil plan reads
// the recording as recorded; under a plan replay.Run accepted for tr, a
// section's lock operations act on its lockset, Locks[Off[i]:Off[i+1]]
// (nothing if empty), and the plan's constraints follow the trace's. At
// most limit races are returned (0 means no limit); duplicates per
// (address, site pair) are suppressed.
func detectMapRef(tr *trace.Trace, plan *trace.Plan, order []int32, limit int) []Race {
	n := tr.NumThreads
	if order == nil {
		order = make([]int32, len(tr.Events))
		for i := range order {
			order[i] = int32(i)
		}
	}

	threadVC := make([]refVC, n)
	for i := range threadVC {
		threadVC[i] = newRefVC(n)
		threadVC[i].Tick(int32(i))
	}
	lockVC := make(map[trace.LockID]refVC)
	// Completion clocks of constraint sources, captured when executed.
	consSrc := make(map[int32]refVC)
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
				readVC: newRefVC(n), writeVC: newRefVC(n),
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
				joined := newRefVC(n)
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

// detectRef is the detector as it read the ULCP-free schedule before the
// plan: from the trace transform.Apply writes, whose lockset members ride
// on KLocksetAcq/KLocksetRel events. Detect under the plan is held
// against it.
func detectRef(tr *trace.Trace, order []int32, limit int) []Race {
	n := tr.NumThreads
	if order == nil {
		order = make([]int32, len(tr.Events))
		for i := range order {
			order[i] = int32(i)
		}
	}

	threadVC := make([]refVC, n)
	for i := range threadVC {
		threadVC[i] = newRefVC(n)
		threadVC[i].Tick(int32(i))
	}
	lockVC := make(map[trace.LockID]refVC)
	// Completion clocks of constraint sources, captured when executed.
	consSrc := make(map[int32]refVC)
	wanted := make(map[int32]bool)
	prereq := make(map[int32][]int32)
	for _, c := range tr.Constraints {
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
				readVC: newRefVC(n), writeVC: newRefVC(n),
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
		case trace.KLockAcq:
			if lv, ok := lockVC[e.Lock]; ok {
				vc.Join(lv)
			}
		case trace.KLockRel:
			lockVC[e.Lock] = vc.Copy()
			vc.Tick(t)
		case trace.KLocksetAcq:
			for _, l := range tr.Ext(e).Locks {
				if lv, ok := lockVC[l]; ok {
					vc.Join(lv)
				}
			}
		case trace.KLocksetRel:
			for _, l := range tr.Ext(e).Locks {
				lockVC[l] = vc.Copy()
			}
			vc.Tick(t)
		case trace.KBarrier:
			k := barKey{e.Lock, e.Value}
			barMembers[k] = append(barMembers[k], t)
			if len(barMembers[k]) == barGroups[k] {
				joined := newRefVC(n)
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

// requireDetectUnderPlanMatchesMaterialised holds Detect over the
// recording under its plan against detectRef over Apply's trace, in the
// order the plan replay started the events, uncapped and capped at one
// race. It returns the races found and the lockset members the plan
// names.
func requireDetectUnderPlanMatchesMaterialised(t testing.TB, what string, tr *trace.Trace) (races, members int) {
	t.Helper()
	css := tr.ExtractCS()
	mat, err := transform.Apply(tr, css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		t.Fatalf("%s: Apply: %v", what, err)
	}
	free, err := replay.Run(tr, replay.Options{Sched: replay.ELSCS, Plan: mat.Plan})
	if err != nil {
		t.Fatalf("%s: plan replay: %v", what, err)
	}
	order := OrderByStart(free.EventStart)
	for _, limit := range []int{0, 1} {
		want := detectRef(mat.Trace, order, limit)
		got := Detect(tr, mat.Plan, order, limit)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: limit %d: Detect under the plan found %v, over the materialised trace %v", what, limit, got, want)
		}
		if limit == 0 {
			races = len(got)
		}
	}
	return races, len(mat.Plan.Locks)
}

// quickProgram is one of the twelve randomized programs
// TestTransformTheorem1Quick checks Theorem 1 on.
func quickProgram(seed int64) *trace.Trace {
	p := sim.NewProgram("q")
	var locks []trace.LockID
	for i := 0; i < 1+int(seed%3); i++ {
		locks = append(locks, p.NewLock("L"))
	}
	cells := p.Mem.AllocN("c", 3, 0)
	s := p.Site("q.c", 1, "f")
	for i := 0; i < 2+int(seed%2); i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 7; j++ {
				th.Compute(vtime.Duration(40 + th.Intn(300)))
				l := locks[th.Intn(len(locks))]
				th.Lock(l, s)
				switch th.Intn(4) {
				case 0: // null
				case 1:
					th.Read(cells[th.Intn(len(cells))], s)
				case 2:
					th.Add(cells[th.Intn(len(cells))], 1, s)
				default:
					c := cells[th.Intn(len(cells))]
					th.Read(c, s)
					th.Add(c, 2, s)
				}
				th.Compute(vtime.Duration(30 + th.Intn(200)))
				th.Unlock(l, s)
			}
		})
	}
	return sim.Run(p, sim.Config{Seed: seed}).Trace
}

// TestDetectUnderPlanMatchesMaterialised is the detector's oracle over
// every registered workload × threads {2,4} × seeds {7,42}, the ten
// appendix cases and the twelve randomized programs of
// TestTransformTheorem1Quick.
func TestDetectUnderPlanMatchesMaterialised(t *testing.T) {
	races, members := 0, 0
	check := func(what string, tr *trace.Trace) {
		r, m := requireDetectUnderPlanMatchesMaterialised(t, what, tr)
		races, members = races+r, members+m
	}
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.05, Seed: seed})
				check(fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed), sim.Run(p, sim.Config{Seed: seed}).Trace)
			}
		}
	}
	for n := 1; n <= 10; n++ {
		p, err := workload.BuildCase(n, workload.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("case%d", n), sim.Run(p, sim.Config{Seed: 42}).Trace)
	}
	for seed := int64(0); seed < 12; seed++ {
		check(fmt.Sprintf("quick/%d", seed), quickProgram(seed))
	}
	if races == 0 || members == 0 {
		t.Fatalf("%d races, %d lockset members over the corpus: the oracle went unexercised", races, members)
	}
}

// FuzzRaceUnderPlan holds the same relation over generated programs with
// selectively recorded ranges and barrier episodes: any seed, two to
// four threads, one to three locks, one to eight critical sections per
// thread, with and without spin locks.
func FuzzRaceUnderPlan(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), false)
	f.Add(int64(11), uint8(1), uint8(1), uint8(5), true)
	f.Add(int64(12), uint8(2), uint8(2), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, threads, locks, iters uint8, spin bool) {
		with := simtest.Skips | simtest.Barriers
		if spin {
			with |= simtest.SpinLocks
		}
		rec := simtest.RandomProgram(seed, 2+int(threads%3), 1+int(locks%3), 1+int(iters%8), with)
		requireDetectUnderPlanMatchesMaterialised(t, "fuzz", rec.Trace)
	})
}

// TestDetectSparseIDs: locks and addresses past the dense tables' bound
// (and a negative lock ID) take map slots, and order and conflict as
// dense ones do.
func TestDetectSparseIDs(t *testing.T) {
	far, neg := trace.LockID(1<<30), trace.LockID(-3)
	hi := memmodel.Addr(1<<31 + 5)
	tr := trace.New("sparse", 2)
	for th := int32(0); th < 2; th++ {
		for _, w := range []struct {
			lock trace.LockID
			addr memmodel.Addr
		}{{far, 10}, {neg, 11}, {1, hi}} {
			tr.Append(trace.Event{Thread: th, Kind: trace.KLockAcq, Lock: w.lock})
			tr.Append(trace.Event{Thread: th, Kind: trace.KWrite, Addr: w.addr, Value: 1})
			tr.Append(trace.Event{Thread: th, Kind: trace.KLockRel, Lock: w.lock})
		}
		tr.Append(trace.Event{Thread: th, Kind: trace.KWrite, Addr: hi + 9, Value: 1})
		tr.Append(trace.Event{Thread: th, Kind: trace.KWrite, Addr: 2, Value: 1})
	}
	got := Detect(tr, nil, nil, 0)
	if want := detectMapRef(tr, nil, nil, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Detect found %v, detectMapRef %v", got, want)
	}
	// The unlocked writes race, to a dense and to a sparse address; the
	// writes under a lock, dense or sparse, do not.
	if len(got) != 2 || got[0].Addr != 2 || got[1].Addr != hi+9 {
		t.Fatalf("races %v, want one on address 2 and one on %d", got, hi+9)
	}
}

// FuzzDetectMatchesMapRef holds Detect to detectMapRef over generated
// programs with every simtest feature, with and without the ULCP-free
// plan (and over the materialised trace), at limits 0, 1 and 32, in four
// linearizations: trace order, the plan replay's start order, a random
// interleaving of the threads, and a random permutation of all events —
// the last two let a constraint's target run before its source and a
// barrier episode stay incomplete.
func FuzzDetectMatchesMapRef(f *testing.F) {
	all := uint8(simtest.Barriers | simtest.Skips | simtest.Conds | simtest.SpinLocks)
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), uint8(0), int64(1))
	f.Add(int64(11), uint8(1), uint8(1), uint8(5), all, int64(2))
	f.Add(int64(12), uint8(2), uint8(2), uint8(7), uint8(simtest.Barriers|simtest.Skips), int64(3))
	f.Fuzz(func(t *testing.T, seed int64, threads, locks, iters, with uint8, orderSeed int64) {
		rec := simtest.RandomProgram(seed, 1+int(threads%4), 1+int(locks%3), 1+int(iters%8), simtest.Feature(with&all))
		tr := rec.Trace
		css := tr.ExtractCS()
		mat, err := transform.Apply(tr, css, ulcp.Identify(tr, css, ulcp.Options{}))
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		free, err := replay.Run(tr, replay.Options{Sched: replay.ELSCS, Plan: mat.Plan})
		if err != nil {
			t.Fatalf("plan replay: %v", err)
		}
		rng := rand.New(rand.NewSource(orderSeed))
		orders := []struct {
			name  string
			order []int32
		}{
			{"trace order", nil},
			{"replay", OrderByStart(free.EventStart)},
			{"interleaved", interleave(rng, tr)},
			{"shuffled", shuffled(rng, len(tr.Events))},
		}
		for _, o := range orders {
			for _, limit := range []int{0, 1, 32} {
				for _, c := range []struct {
					what string
					tr   *trace.Trace
					plan *trace.Plan
				}{{"under the plan", tr, mat.Plan}, {"as recorded", tr, nil}, {"materialised", mat.Trace, nil}} {
					if c.tr != tr && o.order != nil {
						continue // the materialised trace has its own event indices
					}
					got, want := Detect(c.tr, c.plan, o.order, limit), detectMapRef(c.tr, c.plan, o.order, limit)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %s, limit %d: Detect found %v, detectMapRef %v", c.what, o.name, limit, got, want)
					}
				}
			}
		}
	})
}

// interleave returns a random linearization that keeps every thread's
// events in program order.
func interleave(rng *rand.Rand, tr *trace.Trace) []int32 {
	per := slices.Clone(tr.PerThread()) // the trace caches the inner slices
	order := make([]int32, 0, len(tr.Events))
	for len(order) < len(tr.Events) {
		t := rng.Intn(len(per))
		if len(per[t]) > 0 {
			order = append(order, per[t][0])
			per[t] = per[t][1:]
		}
	}
	return order
}

// shuffled returns a random permutation of n event indices.
func shuffled(rng *rand.Rand, n int) []int32 {
	order := make([]int32, n)
	for i, j := range rng.Perm(n) {
		order[i] = int32(j)
	}
	return order
}
