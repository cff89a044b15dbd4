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

// TestDefaultRunDoesNotCopyTheTrace: a default run replays the ULCP-free
// schedule as a plan over the recording, so it neither holds a second
// trace nor allocates one — under 230 bytes per event where the run that
// copied the events, built their extension table and warmed the copy
// allocated over 300 — and its allocation count does not follow the
// trace. A run that verifies Theorem 1 or detects races still has the
// trace those two read. A run that finds the replay-engine pool empty
// allocates an engine's scratch arrays on top of its own, so the
// collector, which empties the pool, is off while measuring, and the
// smallest of several readings is kept: the first run at each size
// finds engines too small or none, and under -race the pool drops
// engines at random.
func TestDefaultRunDoesNotCopyTheTrace(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var bytesPerEvent, allocs [2]float64
	var events [2]int
	for i, scale := range []float64{0.02, 0.04} {
		p := workload.MustGet("fluidanimate").Build(workload.Config{Threads: 4, Scale: scale, Seed: 42})
		var buf bytes.Buffer
		if err := sim.Run(p, sim.Config{Seed: 42}).Trace.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		decoded := func() *trace.Trace {
			tr, err := trace.Decode(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		for rep := 0; rep < 6; rep++ {
			tr := decoded()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := Run(Request{Trace: tr})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			if tf := res.Analysis.Transformed; tf.Plan == nil || tf.Trace != nil || tf.LocksetNodes == 0 {
				t.Fatalf("scale %v: default run: plan %v, trace %v, %d lockset nodes; want a plan with locksets and no trace",
					scale, tf.Plan != nil, tf.Trace != nil, tf.LocksetNodes)
			}
			events[i] = len(tr.Events)
			b, a := float64(m1.TotalAlloc-m0.TotalAlloc)/float64(events[i]), float64(m1.Mallocs-m0.Mallocs)
			if rep == 0 || b < bytesPerEvent[i] {
				bytesPerEvent[i] = b
			}
			if rep == 0 || a < allocs[i] {
				allocs[i] = a
			}
		}
		for _, req := range []Request{{DetectRaces: true}, {VerifyTheorem1: true}} {
			req.Trace = decoded()
			res, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if tf := res.Analysis.Transformed; tf.Plan == nil || tf.Trace == nil {
				t.Fatalf("scale %v: races=%t verify=%t: plan %v, trace %v; want both",
					scale, req.DetectRaces, req.VerifyTheorem1, tf.Plan != nil, tf.Trace != nil)
			}
		}
	}
	t.Logf("%d events: %.0f B/event, %.0f allocations; %d events: %.0f B/event, %.0f allocations",
		events[0], bytesPerEvent[0], allocs[0], events[1], bytesPerEvent[1], allocs[1])
	if events[1] < events[0]*3/2 {
		t.Fatalf("%d then %d events: the scales do not separate", events[0], events[1])
	}
	if bytesPerEvent[0] >= 230 || bytesPerEvent[1] >= 230 {
		t.Errorf("%.0f and %.0f bytes allocated per event, want < 230 on both", bytesPerEvent[0], bytesPerEvent[1])
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
