package transform

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/simtest"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// requirePlanReplayEqualsMaterialised holds the two forms of the
// ULCP-free schedule against each other on one recording: Plan's counters
// equal Apply's, and replaying the recording under the plan yields the
// whole replay.Result — every timestamp, counter, the memory image and
// the read digests — that replaying Apply's trace yields, under every
// scheme, with the dynamic locking strategy and the maintenance cost
// model each on and off. It returns the lockset acquisitions it saw.
func requirePlanReplayEqualsMaterialised(t testing.TB, what string, tr *trace.Trace) int {
	t.Helper()
	css := tr.ExtractCS()
	rep := ulcp.Identify(tr, css, ulcp.Options{})
	mat, err := Apply(tr, css, rep)
	if err != nil {
		t.Fatalf("%s: Apply: %v", what, err)
	}
	planned, err := Plan(css, rep)
	if err != nil {
		t.Fatalf("%s: Plan: %v", what, err)
	}
	if planned.Trace != nil {
		t.Fatalf("%s: Plan materialised a trace", what)
	}
	if got, want := [3]int{planned.RemovedSync, planned.LocksetNodes, planned.Constraints},
		[3]int{mat.RemovedSync, mat.LocksetNodes, mat.Constraints}; got != want {
		t.Fatalf("%s: Plan removed/lockset/constraints = %v, Apply %v", what, got, want)
	}
	locksets := 0
	for _, sched := range []replay.Scheduler{replay.OrigS, replay.ELSCS, replay.SyncS, replay.MemS} {
		for _, dls := range []bool{false, true} {
			for _, cost := range []vtime.Duration{0, 40} {
				opts := replay.Options{Sched: sched, Seed: 9, DLS: dls, LocksetCost: cost}
				want, wantErr := replay.Run(mat.Trace, opts)
				opts.Plan = planned.Plan
				got, gotErr := replay.Run(tr, opts)
				name := fmt.Sprintf("%s/%v/dls=%t/cost=%d", what, sched, dls, cost)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: plan replay error %v, materialised replay error %v", name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: plan replay diverged from the materialised trace's", name)
				}
				if got != nil {
					locksets += got.LocksetAcqs
				}
			}
		}
	}
	return locksets
}

// TestPlanReplayEqualsMaterialised is the plan's oracle over real
// inputs — every registered workload × threads {2,4} × seeds {7,42} — and
// over generated programs that bear what few workloads do: selectively
// recorded ranges and barrier episodes.
func TestPlanReplayEqualsMaterialised(t *testing.T) {
	locksets := 0
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.05, Seed: seed})
				tr := sim.Run(p, sim.Config{Seed: seed}).Trace
				locksets += requirePlanReplayEqualsMaterialised(t, fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed), tr)
			}
		}
	}
	if locksets == 0 {
		t.Fatal("no plan acquired a lockset: the lockset path went unexercised")
	}
	for _, c := range []struct {
		with simtest.Feature
		kind trace.Kind
	}{{simtest.Skips, trace.KSkip}, {simtest.Barriers, trace.KBarrier}} {
		tr := simtest.RandomProgram(11, 3, 2, 6, c.with).Trace
		if tr.CountKind(c.kind) == 0 {
			t.Fatalf("generated program has no %v event", c.kind)
		}
		requirePlanReplayEqualsMaterialised(t, fmt.Sprintf("random/%v", c.kind), tr)
	}

	// A recording may carry constraints of its own — every decoder reads
	// them — and both forms keep them, ahead of the plan's. This one binds:
	// the thread that would end first waits for the one that ends last.
	tr := simtest.RandomProgram(5, 3, 2, 6, 0).Trace
	css := tr.ExtractCS()
	planned, err := Plan(css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	free, err := replay.Run(tr, replay.Options{Sched: replay.ELSCS, Plan: planned.Plan})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int32 // each thread's last event, by ascending end time
	for _, evs := range tr.PerThread() {
		ends = append(ends, evs[len(evs)-1])
	}
	slices.SortFunc(ends, func(a, b int32) int { return cmp.Compare(free.EventEnd[a], free.EventEnd[b]) })
	own := trace.Constraint{After: ends[len(ends)-1], Before: ends[0]}
	if free.EventEnd[own.After] <= free.EventStart[own.Before] {
		t.Fatalf("constraint %v would not bind", own)
	}
	tr.Constraints = []trace.Constraint{own}
	requirePlanReplayEqualsMaterialised(t, "own-constraint", tr)
	mat, err := Apply(tr, css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(mat.Trace.Constraints) != 1+planned.Constraints || mat.Trace.Constraints[0] != own {
		t.Fatalf("Apply wrote %d constraints, want the recording's and the plan's %d behind it", len(mat.Trace.Constraints), planned.Constraints)
	}
	bound, err := replay.Run(tr, replay.Options{Sched: replay.ELSCS, Plan: planned.Plan})
	if err != nil {
		t.Fatal(err)
	}
	if bound.EventStart[own.Before] < bound.EventEnd[own.After] {
		t.Fatalf("plan replay started event %d before event %d ended", own.Before, own.After)
	}
}

// FuzzPlanReplay holds the same relation over generated programs: any
// seed, two to four threads, one to three locks, one to eight critical
// sections per thread, with and without skips and barriers.
func FuzzPlanReplay(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(5), uint8(0))
	f.Add(int64(11), uint8(1), uint8(1), uint8(5), uint8(simtest.Skips))
	f.Add(int64(12), uint8(2), uint8(2), uint8(7), uint8(simtest.Barriers))
	f.Add(int64(-3), uint8(1), uint8(0), uint8(3), uint8(simtest.Skips|simtest.Barriers))
	f.Fuzz(func(t *testing.T, seed int64, threads, locks, iters, with uint8) {
		rec := simtest.RandomProgram(seed, 2+int(threads%3), 1+int(locks%3), 1+int(iters%8),
			simtest.Feature(with)&(simtest.Skips|simtest.Barriers))
		requirePlanReplayEqualsMaterialised(t, "fuzz", rec.Trace)
	})
}
