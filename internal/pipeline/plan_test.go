package pipeline

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// TestDefaultRunDoesNotCopyTheTrace: every run replays the ULCP-free
// schedule as a plan over the recording, and the Theorem 1 check and the
// race detector read that plan and the two replays the run already made,
// so no run holds a second trace or allocates one. A default run
// allocates under 230 bytes per event where the run that copied the
// events, built their extension table and warmed the copy allocated over
// 300, and its allocation count does not follow the trace. The Theorem 1
// check adds under 2 bytes per event to the run it rides on: it replays
// nothing, and with -races it reuses the detector's linearization (a
// second one is 4 bytes per event, one replay's start and end times 16).
// The detector adds at most 100: the linearization and its section index,
// 8 bytes per event, then its vector clocks and per-address state, about
// 86 here. The run that wrote the trace out for those two readers paid 97
// more per event for -verify, 146 for -races and 179 for both. A run
// that finds the replay-engine pool empty allocates an engine's scratch
// arrays on top of its own, so the collector, which empties the pool, is
// off while measuring, and the smallest of several readings is kept: the
// first run at each size finds engines too small or none, and under
// -race the pool drops engines at random.
func TestDefaultRunDoesNotCopyTheTrace(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	kinds := []Request{{}, {DetectRaces: true}, {VerifyTheorem1: true}, {DetectRaces: true, VerifyTheorem1: true}}
	var bytesPerEvent [2][4]float64
	var allocs [2]float64
	var events [2]int
	for i, scale := range []float64{0.02, 0.04} {
		p := workload.MustGet("fluidanimate").Build(workload.Config{Threads: 4, Scale: scale, Seed: 42})
		var buf bytes.Buffer
		if err := sim.Run(p, sim.Config{Seed: 42}).Trace.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		for k, req := range kinds {
			for rep := 0; rep < 6; rep++ {
				tr, err := trace.Decode(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				req.Trace = tr
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				res, err := Run(req)
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				if tf := res.Analysis.Transformed; tf.Plan == nil || tf.Trace != nil || tf.LocksetNodes == 0 {
					t.Fatalf("scale %v: races=%t verify=%t: plan %v, trace %v, %d lockset nodes; want a plan with locksets and no trace",
						scale, req.DetectRaces, req.VerifyTheorem1, tf.Plan != nil, tf.Trace != nil, tf.LocksetNodes)
				}
				events[i] = len(tr.Events)
				b, a := float64(m1.TotalAlloc-m0.TotalAlloc)/float64(events[i]), float64(m1.Mallocs-m0.Mallocs)
				if rep == 0 || b < bytesPerEvent[i][k] {
					bytesPerEvent[i][k] = b
				}
				if k == 0 && (rep == 0 || a < allocs[i]) {
					allocs[i] = a
				}
			}
		}
	}
	t.Logf("%d events: %.0f allocations, B/event default/races/verify/both %.1f; %d events: %.0f allocations, %.1f",
		events[0], allocs[0], bytesPerEvent[0], events[1], allocs[1], bytesPerEvent[1])
	if events[1] < events[0]*3/2 {
		t.Fatalf("%d then %d events: the scales do not separate", events[0], events[1])
	}
	for i := range events {
		b := bytesPerEvent[i]
		if b[0] >= 230 {
			t.Errorf("%d events: %.0f bytes allocated per event, want < 230", events[i], b[0])
		}
		for _, c := range []struct {
			what              string
			over, base, bound float64
		}{
			{"-verify over the default run", b[2], b[0], 2},
			{"-races -verify over -races", b[3], b[1], 2},
			{"-races over the default run", b[1], b[0], 100},
		} {
			if extra := c.over - c.base; extra >= c.bound {
				t.Errorf("%d events: %s: %.1f more bytes per event, want under %.0f", events[i], c.what, extra, c.bound)
			}
		}
	}
	// Twice the events is one more growth step for every per-thread and
	// per-lock list that is appended to (PerThread, LockOrder, CSByLock,
	// identification's per-lock scratch): 27 allocations here, 16 to 35
	// in six runs under -race. One allocation per critical section of
	// the difference would be over 3,000.
	if diff := allocs[1] - allocs[0]; diff < -10 || diff > 60 {
		t.Errorf("%.0f allocations for %d events, %.0f for %d; want the larger run to make 27, give or take 35, more",
			allocs[0], events[0], allocs[1], events[1])
	}
}
