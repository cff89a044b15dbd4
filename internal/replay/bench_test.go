package replay

import (
	"testing"

	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
)

// scanReplays are the two replays one analysis of a cli-scan recording
// runs — fluidanimate, 4 threads, ×0.04, seed 42: ELSC as recorded, and
// ELSC under the ULCP-free plan.
func scanReplays(tb testing.TB) (*trace.Trace, []scanReplay) {
	tb.Helper()
	tr := workloadTrace("fluidanimate", 4, 0.04, 42)
	css := tr.ExtractCS()
	tf, err := transform.Plan(css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		tb.Fatal(err)
	}
	return tr, []scanReplay{{"elsc", Options{Sched: ELSCS}}, {"plan", Options{Sched: ELSCS, Plan: tf.Plan}}}
}

type scanReplay struct {
	name string
	opts Options
}

// TestReplayPollsPerEvent pins parking: on both replays of a cli-scan
// analysis, loop calls eligible at most 2.3 times per executed event.
// Polling every thread after every event is 4.
func TestReplayPollsPerEvent(t *testing.T) {
	tr, runs := scanReplays(t)
	e := enginePool.Get().(*engine)
	defer e.release()
	for _, r := range runs {
		if _, err := e.run(tr, r.opts); err != nil {
			t.Fatal(err)
		}
		if got := float64(e.polls) / float64(len(tr.Events)); got > 2.3 {
			t.Errorf("%s: %.2f eligibility calls per event, want <= 2.3", r.name, got)
		} else {
			t.Logf("%s: %.2f eligibility calls per event", r.name, got)
		}
	}
}

// BenchmarkReplayScan times the two replays of a cli-scan analysis on a
// recycled engine and reports each one's ns/event and polls/event.
func BenchmarkReplayScan(b *testing.B) {
	tr, runs := scanReplays(b)
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			e := enginePool.Get().(*engine)
			defer e.release()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.run(tr, r.opts); err != nil {
					b.Fatal(err)
				}
			}
			n := float64(len(tr.Events))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
			b.ReportMetric(float64(e.polls)/n, "polls/event")
		})
	}
}
