package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
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
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("own exposition failed strict parse: %v\n%s", err, b.String())
	}
	byName := map[string]ExpositionFamily{}
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
	if problems := LintFamilies(fams, "perfplay_"); len(problems) != 0 {
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

func TestParseExpositionCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"sample before HELP":  "perfplay_x_total 1\n",
		"missing TYPE":        "# HELP perfplay_x_total x\nperfplay_x_total 1\n",
		"duplicate series":    "# HELP perfplay_x_total x\n# TYPE perfplay_x_total counter\nperfplay_x_total 1\nperfplay_x_total 2\n",
		"interleaved family":  "# HELP a_total a\n# TYPE a_total counter\nb_total 1\n",
		"bad value":           "# HELP a_total a\n# TYPE a_total counter\na_total abc\n",
		"reopened family":     "# HELP a_total a\n# TYPE a_total counter\na_total 1\n# HELP b b\n# TYPE b gauge\nb 1\n# HELP a_total a\n# TYPE a_total counter\na_total 2\n",
		"stray comment":       "# a comment\n",
		"type without help":   "# TYPE a_total counter\na_total 1\n",
		"unknown metric type": "# HELP a a\n# TYPE a zig\na 1\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: strict parse accepted:\n%s", name, in)
		}
	}
}

func TestLintFamiliesCatchesViolations(t *testing.T) {
	fams := []ExpositionFamily{
		{Name: "requests_total", Type: "counter"},         // missing prefix
		{Name: "perfplay_requests", Type: "counter"},      // counter without _total
		{Name: "perfplay_wait", Type: "histogram"},        // histogram without unit
		{Name: "perfplay_depth_total", Type: "gauge"},     // gauge ending _total
		{Name: "perfplay_ok_total", Type: "counter"},      // conforming
		{Name: "perfplay_dur_seconds", Type: "histogram"}, // conforming
	}
	problems := LintFamilies(fams, "perfplay_")
	if len(problems) != 4 {
		t.Fatalf("lint found %d problems, want 4: %v", len(problems), problems)
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

func TestTraceStoreOrderAndBounds(t *testing.T) {
	ts := NewTraceStore(2, 3)
	base := time.Now()
	// Out-of-order insertion sorts by start on read.
	ts.Add("t1", Span{ID: "b", Name: "second", Start: base.Add(time.Second)})
	ts.Add("t1", Span{ID: "a", Name: "first", Start: base})
	spans, dropped, ok := ts.Get("t1")
	if !ok || dropped != 0 || len(spans) != 2 || spans[0].ID != "a" {
		t.Fatalf("Get(t1) = %v, %d, %v", spans, dropped, ok)
	}

	// Per-trace span cap: keep the first maxSpans, count the rest.
	ts.Add("t1", Span{ID: "c", Start: base})
	ts.Add("t1", Span{ID: "d", Start: base})
	spans, dropped, _ = ts.Get("t1")
	if len(spans) != 3 || dropped != 1 {
		t.Fatalf("after overflow: %d spans, %d dropped", len(spans), dropped)
	}

	// Store cap: t1 was just touched, so adding t2 then t3 evicts t2.
	ts.Add("t2", Span{ID: "x", Start: base})
	ts.Get("t1")
	ts.Add("t3", Span{ID: "y", Start: base})
	if _, _, ok := ts.Get("t2"); ok {
		t.Fatal("LRU eviction kept the least-recently-touched trace")
	}
	if _, _, ok := ts.Get("t1"); !ok {
		t.Fatal("LRU eviction removed a recently-touched trace")
	}
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}

	// Empty trace IDs are silently ignored.
	ts.Add("", Span{ID: "z"})
	if ts.Len() != 2 {
		t.Fatal("empty trace ID created an entry")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("perfplay_conc_total", "c")
	h := r.NewHistogramVec("perfplay_conc_seconds", "h", DurationBuckets).With()
	ts := NewTraceStore(8, 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
				h.Observe(0.001)
				ts.Add("t", Span{ID: NewSpanID(), Start: time.Now()})
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
	if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("exposition after concurrency: %v", err)
	}
}
