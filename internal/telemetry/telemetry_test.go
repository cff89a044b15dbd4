package telemetry

import (
	"strings"
	"sync"
	"testing"

	"perfplay/internal/promtext"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("perfplay_events_total", "events")
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if got := c.Int(); got != 3 {
		t.Fatalf("counter int = %d, want 3", got)
	}

	depth := 3.0
	r.NewGaugeFunc("perfplay_depth", "depth", func() float64 { return depth })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "perfplay_depth 3\n") {
		t.Fatalf("gauge not rendered as 3:\n%s", b.String())
	}

	h := r.NewHistogramVec("perfplay_wait_seconds", "wait", DurationBuckets).With()
	h.Observe(0.0007)
	h.Observe(0.3)
	h.Observe(120) // beyond the last bound: only +Inf/_count/_sum
	if got := h.Count(); got != 3 {
		t.Fatalf("histogram count = %d, want 3", got)
	}
}

func TestCounterRejectsDecrease(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("perfplay_x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestVecSeries(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("perfplay_hits_total", "hits", "cache", "outcome")
	v.With("result", "hit").Add(2)
	v.With("result", "miss").Inc()
	v.With("table", "hit").Inc()
	if got := v.With("result", "hit").Value(); got != 2 {
		t.Fatalf("series = %v, want 2", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`perfplay_hits_total{cache="result",outcome="hit"} 2`,
		`perfplay_hits_total{cache="result",outcome="miss"} 1`,
		`perfplay_hits_total{cache="table",outcome="hit"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := 7
	r.NewGaugeFunc("perfplay_queue_depth", "queued jobs", func() float64 { return float64(depth) })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "perfplay_queue_depth 7") {
		t.Fatalf("callback gauge not rendered:\n%s", b.String())
	}
	depth = 9
	b.Reset()
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "perfplay_queue_depth 9") {
		t.Fatalf("callback gauge not re-evaluated:\n%s", b.String())
	}
}

func TestRegisterIdempotentAndConflicting(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("perfplay_same_total", "help")
	b := r.NewCounter("perfplay_same_total", "help")
	a.Inc()
	if got := b.Value(); got != 1 {
		t.Fatalf("re-registration returned a distinct series: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.NewGaugeFunc("perfplay_same_total", "help", func() float64 { return 0 })
}

func TestRegisterRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"Perfplay_total", "perfplay__x", "_x", "x-y", "x_"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.NewCounter(bad, "h")
		}()
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("perfplay_jobs_total", "jobs").Add(4)
	r.NewCounterVec("perfplay_temp_total", "temp", "zone").With(`we"ird\zone`).Add(1.5)
	h := r.NewHistogramVec("perfplay_stage_seconds", "stage wall", DurationBuckets, "stage")
	h.With("record").Observe(0.02)
	h.With("replay").Observe(2)
	r.NewGaugeFunc("perfplay_live", "live", func() float64 { return 1 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition failed strict parse: %v\n%s", err, b.String())
	}
	byName := map[string]promtext.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["perfplay_stage_seconds"]; f.Type != "histogram" {
		t.Fatalf("stage family = %+v", f)
	}
	// Two label values × (len(buckets)+1 bucket lines + sum + count).
	want := 2 * (len(DurationBuckets) + 3)
	if got := len(byName["perfplay_stage_seconds"].Series); got != want {
		t.Fatalf("histogram series = %d, want %d", got, want)
	}
	if problems := promtext.Lint(fams, "perfplay_"); len(problems) != 0 {
		t.Fatalf("lint problems on a conforming registry: %v", problems)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("perfplay_d_seconds", "d", []float64{1, 2, 4}).With()
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	h.Observe(100)
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		`perfplay_d_seconds_bucket{le="1"} 1`,
		`perfplay_d_seconds_bucket{le="2"} 2`,
		`perfplay_d_seconds_bucket{le="4"} 3`,
		`perfplay_d_seconds_bucket{le="+Inf"} 4`,
		`perfplay_d_seconds_count 4`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatal("two trace IDs collided")
	}
	if !ValidTraceID(a) {
		t.Fatalf("minted trace ID %q not valid", a)
	}
	if len(NewSpanID()) != 16 {
		t.Fatalf("span ID length = %d", len(NewSpanID()))
	}
	for _, bad := range []string{"", "short", strings.Repeat("a", 65), "UPPERHEX00", "not-hex-zz"} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("perfplay_conc_total", "c")
	h := r.NewHistogramVec("perfplay_conc_seconds", "h", DurationBuckets).With()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}(i)
	}
	wg.Wait()
	if got := c.Int(); got != 800 {
		t.Fatalf("concurrent counter = %d, want 800", got)
	}
	if got := h.Count(); got != 800 {
		t.Fatalf("concurrent histogram count = %d, want 800", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := promtext.Parse(strings.NewReader(b.String())); err != nil {
		t.Fatalf("exposition after concurrency: %v", err)
	}
}
