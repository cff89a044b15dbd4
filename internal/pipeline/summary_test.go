package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"perfplay/internal/core"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// summaryRef is core.Analysis.Summary as it stood before the report
// text moved to core.Summary.Render: rendered straight from the
// artifacts. With renderRef it is the oracle the one remaining copy of
// the text is pinned to.
func summaryRef(a *core.Analysis, topK int) string {
	d := a.Debug
	threads, dynamicLocks := len(a.OrigReplay.PerThreadCPU), len(a.CSs)
	if a.Recorded != nil {
		threads, dynamicLocks = a.Recorded.Trace.NumThreads, a.Recorded.Trace.DynamicLocks()
	}
	s := fmt.Sprintf("PerfPlay analysis of %s (%d threads)\n", a.App, threads)
	s += fmt.Sprintf(" dynamic locks: %d  critical sections: %d\n", dynamicLocks, len(a.CSs))
	s += fmt.Sprintf(" ULCPs: %d (null-lock %d, read-read %d, disjoint-write %d, benign %d), TLCPs: %d\n",
		a.Report.NumULCPs(),
		a.Report.Counts[ulcp.NullLock], a.Report.Counts[ulcp.ReadRead],
		a.Report.Counts[ulcp.DisjointWrite], a.Report.Counts[ulcp.Benign],
		a.Report.Counts[ulcp.TLCP])
	s += fmt.Sprintf(" replayed: original %v, ULCP-free %v  => degradation %.2f%%\n",
		d.Tut, d.Tuft, d.NormalizedDegradation()*100)
	s += fmt.Sprintf(" resource waste: %v (%.2f%%/thread)\n",
		d.Trw, d.CPUWastePerThread(threads)*100)
	if len(a.Races) > 0 {
		s += fmt.Sprintf(" data races reported in transformed trace: %d\n", len(a.Races))
	}
	if len(d.Groups) > 0 {
		s += fmt.Sprintf(" grouped ULCP code regions: %d; top recommendations:\n", len(d.Groups))
		for i, g := range d.Recommend(topK) {
			s += fmt.Sprintf("  #%d %s\n", i+1, g)
		}
	}
	return s
}

// renderRef is the pipeline's former render: the report of a result that
// still holds its artifacts, at depth topK.
func renderRef(res *Result, topK int) string {
	a := res.Analysis
	s := summaryRef(a, topK)
	if a.Theorem1 != nil {
		s += " " + a.Theorem1.String() + "\n"
	}
	if len(res.Schemes) > 0 {
		var recorded vtime.Duration
		switch {
		case a.Recorded != nil:
			recorded = a.Recorded.Trace.TotalTime
		case res.Request.Trace != nil:
			recorded = res.Request.Trace.TotalTime
		default:
			recorded = a.OrigReplay.Total
		}
		s += fmt.Sprintf(" scheme replays (recorded %v):", recorded)
		for _, sr := range res.Schemes {
			s += fmt.Sprintf("  %v %v", sr.Sched, sr.Result.Total)
		}
		s += "\n"
	}
	for _, r := range a.Races {
		s += fmt.Sprintf(" race: %s\n", r)
	}
	return s
}

// TestSummaryRenderMatchesReference pins the summary's rendering to the
// artifact-based reference byte for byte — for the fresh run, a cache
// hit and a wire export, at every depth — over every registered
// workload and every flag that adds report lines.
func TestSummaryRenderMatchesReference(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Request)
	}{
		{"plain", func(*Request) {}},
		{"schemes", func(r *Request) { r.Schemes = true }},
		{"races", func(r *Request) { r.DetectRaces = true }},
		{"theorem1", func(r *Request) { r.VerifyTheorem1 = true }},
	}
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				// One pipeline per recording: the variants miss its result
				// cache (their keys differ) but share its verdict table.
				p := New(Options{CacheSize: len(variants)})
				for _, v := range variants {
					what := fmt.Sprintf("%s/threads=%d/seed=%d/%s", app, threads, seed, v.name)
					req := Request{App: app, Threads: threads, Scale: 0.1, Seed: seed}
					v.set(&req)
					fresh, err := p.Run(req)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if want := renderRef(fresh, 5); fresh.Report != want {
						t.Fatalf("%s: fresh report differs from the reference:\nwant:\n%s\ngot:\n%s", what, want, fresh.Report)
					}
					key, _ := p.CacheKeyFor(req)
					for _, topK := range []int{0, 1, 3, 50} {
						want := renderRef(fresh, depthOrDefault(topK))
						if got := fresh.Summary.Render(depthOrDefault(topK)); got != want {
							t.Fatalf("%s top %d: summary rendering differs from the reference:\nwant:\n%s\ngot:\n%s", what, topK, want, got)
						}
						req.TopK = topK
						hit, err := p.Run(req)
						if err != nil || !hit.CacheHit {
							t.Fatalf("%s top %d: repeat run: hit=%v err=%v", what, topK, hit != nil && hit.CacheHit, err)
						}
						if hit.Report != want {
							t.Fatalf("%s top %d: cache-hit report differs from the reference:\nwant:\n%s\ngot:\n%s", what, topK, want, hit.Report)
						}
						wr, ok := p.Export(key, topK)
						if !ok || wr.Report != want {
							t.Fatalf("%s top %d: exported report differs from the reference (ok=%v):\nwant:\n%s\ngot:\n%s", what, topK, ok, want, wr.Report)
						}
					}
				}
			}
		}
	}
}

// TestResultCacheRetainsNoTrace: once the caller drops its references,
// the trace a digest-keyed job analyzed is collectable — nothing the
// cache keeps reaches it — while a repeat of the job still hits, without
// the trace ever being loaded again.
func TestResultCacheRetainsNoTrace(t *testing.T) {
	p := New(Options{CacheSize: 4})
	req := recordedDigestRequest(t, 3)
	req.Schemes = true
	digest := req.TraceDigest
	collected := make(chan struct{})
	runtime.SetFinalizer(req.Trace, func(*trace.Trace) { close(collected) })
	res, err := p.Run(req)
	if err != nil || res.CacheHit {
		t.Fatalf("first run: hit=%v err=%v", res != nil && res.CacheHit, err)
	}
	want := res.Report
	req, res = Request{}, nil

	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("the analyzed trace is still reachable after its job finished: the result cache retains it")
	}

	hit, err := p.Run(Request{
		TraceDigest: digest,
		Schemes:     true,
		TraceLoader: func() (*trace.Trace, error) {
			t.Error("a cache hit loaded the trace")
			return nil, fmt.Errorf("unreachable")
		},
	})
	if err != nil || !hit.CacheHit {
		t.Fatalf("repeat run: hit=%v err=%v", hit != nil && hit.CacheHit, err)
	}
	if hit.Analysis != nil || hit.Schemes != nil {
		t.Fatal("a cache hit carries artifacts")
	}
	if hit.Report != want {
		t.Fatalf("cache-hit report differs:\nwant:\n%s\ngot:\n%s", want, hit.Report)
	}
}

// TestCachedBytesIndependentOfTraceSize: what a pipeline retains per
// finished job — a summary in the result cache, a verdict table in the
// table cache — is small and does not grow with the analyzed trace.
func TestCachedBytesIndependentOfTraceSize(t *testing.T) {
	const entries = 32
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, scale := range []float64{0.25, 0.5} {
		p := New(Options{CacheSize: entries})
		before := heap()
		for seed := int64(1); seed <= entries; seed++ {
			if _, err := p.Run(Request{App: "mysql", Threads: 4, Scale: scale, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		after := heap()
		if p.CacheLen() != entries || p.TableCacheLen() != entries {
			t.Fatalf("scale %v: caches hold %d results and %d tables, want %d each", scale, p.CacheLen(), p.TableCacheLen(), entries)
		}
		perEntry := (int64(after) - int64(before)) / entries
		t.Logf("scale %v: %d B retained per cached job", scale, perEntry)
		if perEntry > 64<<10 {
			t.Fatalf("scale %v: %d B retained per cached job, want ≤ 64 KiB", scale, perEntry)
		}
		runtime.KeepAlive(p)
	}
}

// Wire bodies shared by the decode test and the fuzz seeds: the shape
// this commit exports, and the shape its parent did (every pair under
// "ulcp", schemes as a list, timings as {stage, wall, start}).
const (
	wireNewShape = `{"key":"k","top":5,"app":"pbzip2","threads":2,"critical_sections":10,"ulcps":3,` +
		`"degradation_pct":1.5,"schemes":{"ELSC-S":"10t"},"report":"r",` +
		`"timings":[{"stage":"record","wall_ns":1000,"wall":"1µs"}]}`
	wireParentShape = `{"key":"k","top":5,"app":"pbzip2","threads":2,"critical_sections":10,` +
		`"ulcp":{"pairs":[{"c1":0,"c2":1,"cat":1}],"reversed_replays":2},"degradation_pct":1.5,"report":"r"}`
	wireParentShapeFull = `{"key":"k","top":5,"app":"pbzip2","threads":2,"critical_sections":10,` +
		`"ulcp":{"pairs":[{"c1":0,"c2":1,"cat":1}]},"degradation_pct":1.5,` +
		`"schemes":[{"sched":"ELSC-S","total":"10t"}],"report":"r",` +
		`"timings":[{"stage":"record","wall":1000,"start":"2026-01-01T00:00:00Z"}]}`
)

// TestReadWireResult: the current shape imports with every field; a
// parent-shape body — which would otherwise decode to a summary with a
// zero ULCP count — a truncated body and an unknown field are errors,
// which the daemon treats as a miss.
func TestReadWireResult(t *testing.T) {
	w, err := ReadWireResult(bytes.NewReader([]byte(wireNewShape)), "k", 5)
	if err != nil {
		t.Fatalf("current shape rejected: %v", err)
	}
	if w.ULCPs != 3 || w.Schemes["ELSC-S"] != "10t" || len(w.Timings) != 1 || w.Timings[0].Wall != time.Microsecond {
		t.Fatalf("current shape lost fields: %+v", w)
	}
	for name, body := range map[string]string{
		"parent shape":          wireParentShape,
		"parent shape, schemes": wireParentShapeFull,
		"truncated":             wireNewShape[:len(wireNewShape)/2],
		"unknown field":         `{"key":"k","top":5,"report":"r","extra":1}`,
		"wrong key":             `{"key":"other","top":5,"report":"r"}`,
		"empty":                 ``,
	} {
		if _, err := ReadWireResult(bytes.NewReader([]byte(body)), "k", 5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzWireResultDecode: whatever a peer sends, reading it either fails
// or yields a result that passed the import guards and converts to a
// job summary — never a panic.
func FuzzWireResultDecode(f *testing.F) {
	for _, seed := range []string{
		wireNewShape, wireParentShape, wireParentShapeFull,
		wireNewShape[:len(wireNewShape)/2], wireParentShape[:len(wireParentShape)/3],
		`{}`, `null`, `[]`, `{"key":"k","top":5,"report":"r","timings":[null,{"wall_ns":-1}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadWireResult(bytes.NewReader(data), "k", 5)
		if err != nil {
			return
		}
		if w.Key != "k" || w.TopK != 5 || w.Report == "" {
			t.Fatalf("guards passed %+v", w)
		}
		sum := w.Rendered
		sum.CacheHit = true
		if _, err := json.Marshal(sum); err != nil {
			t.Fatalf("imported summary does not re-encode: %v", err)
		}
	})
}
