package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/simtest"
	"perfplay/internal/workload"
)

// sameRecording holds a recording made over the coroutine transport
// against the same program's recording over the channel machine: equal
// event for event, then equal in everything else a Result carries.
func sameRecording(got, want *sim.Result) error {
	g, w := got.Trace, want.Trace
	if len(g.Events) != len(w.Events) {
		return fmt.Errorf("%d events, channel machine %d", len(g.Events), len(w.Events))
	}
	for i := range g.Events {
		if g.Events[i] != w.Events[i] {
			return fmt.Errorf("event %d: %+v, channel machine %+v", i, g.Events[i], w.Events[i])
		}
	}
	if got.Total != want.Total || got.SpinWaste != want.SpinWaste || got.Waited != want.Waited ||
		!reflect.DeepEqual(got.PerThreadCPU, want.PerThreadCPU) || !reflect.DeepEqual(got.PerThreadWait, want.PerThreadWait) {
		return fmt.Errorf("measurements differ: total %v cpu %v wait %v spin %v waited %v, channel machine %v %v %v %v %v",
			got.Total, got.PerThreadCPU, got.PerThreadWait, got.SpinWaste, got.Waited,
			want.Total, want.PerThreadCPU, want.PerThreadWait, want.SpinWaste, want.Waited)
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("traces differ outside their events (extensions, memory images, sites or names)")
	}
	return nil
}

func TestRecordMatchesChannelMachine(t *testing.T) {
	for _, app := range workload.All() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				cfg := workload.Config{Threads: threads, Scale: 0.05, Seed: seed}
				got := sim.Run(app.Build(cfg), sim.Config{Seed: seed})
				want := sim.RunRef(app.Build(cfg), sim.Config{Seed: seed})
				if err := sameRecording(got, want); err != nil {
					t.Errorf("%s threads=%d seed=%d: %v", app.Name, threads, seed, err)
				}
			}
		}
	}
}

func FuzzRecordTransports(f *testing.F) {
	all := simtest.Barriers | simtest.Skips | simtest.Conds | simtest.SpinLocks
	f.Add(int64(11), uint8(1), uint8(1), uint8(5), uint8(all))
	f.Add(int64(12), uint8(2), uint8(2), uint8(7), uint8(simtest.Conds))
	f.Add(int64(-3), uint8(0), uint8(0), uint8(3), uint8(simtest.Skips|simtest.SpinLocks))
	f.Add(int64(5), uint8(1), uint8(2), uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, threads, locks, iters, with uint8) {
		build := func() *sim.Program {
			return simtest.Program(seed, 2+int(threads%3), 1+int(locks%3), 1+int(iters%8), simtest.Feature(with)&all)
		}
		got := sim.Run(build(), sim.Config{Seed: seed})
		want := sim.RunRef(build(), sim.Config{Seed: seed})
		if err := sameRecording(got, want); err != nil {
			t.Fatal(err)
		}
		if err := got.Trace.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecordBytesPerEvent pins what recording allocates: two copies of
// each 48-byte event (the recorder's chunk and the trace's array, sized
// once) plus what the program itself allocates, and an allocation count
// that does not follow the event count.
func TestRecordBytesPerEvent(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var bytesPerEvent, allocs [2]float64
	var events [2]int
	for i, scale := range []float64{0.02, 0.04} {
		for rep := 0; rep < 4; rep++ {
			p := workload.MustGet("fluidanimate").Build(workload.Config{Threads: 4, Scale: scale, Seed: 42})
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res := sim.Run(p, sim.Config{Seed: 42})
			runtime.ReadMemStats(&m1)
			events[i] = len(res.Trace.Events)
			b, a := float64(m1.TotalAlloc-m0.TotalAlloc)/float64(events[i]), float64(m1.Mallocs-m0.Mallocs)
			if rep == 0 || b < bytesPerEvent[i] {
				bytesPerEvent[i] = b
			}
			if rep == 0 || a < allocs[i] {
				allocs[i] = a
			}
		}
	}
	t.Logf("%d events: %.0f B/event, %.0f allocations; %d events: %.0f B/event, %.0f allocations",
		events[0], bytesPerEvent[0], allocs[0], events[1], bytesPerEvent[1], allocs[1])
	if events[1] < events[0]*3/2 {
		t.Fatalf("%d then %d events: the scales do not separate", events[0], events[1])
	}
	if bytesPerEvent[0] > 150 || bytesPerEvent[1] > 150 {
		t.Errorf("%.0f and %.0f bytes allocated per event, want <= 150 on both", bytesPerEvent[0], bytesPerEvent[1])
	}
	// Twice the events is one recorder chunk more per 8192 of them and a
	// growth step for the chunk list: 3 allocations here. One allocation
	// per barrier episode or contended release would be thousands.
	if diff := allocs[1] - allocs[0]; diff < -10 || diff > 30 {
		t.Errorf("%.0f then %.0f allocations for %d then %d events: the count must not grow with the events",
			allocs[0], allocs[1], events[0], events[1])
	}
}
