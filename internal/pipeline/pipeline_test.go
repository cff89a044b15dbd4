package pipeline

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfplay/internal/corpus"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// TestSchemesAndStages checks the stage plumbing: four scheme replays in
// scheduler order, all five stage timings, and a populated analysis.
func TestSchemesAndStages(t *testing.T) {
	res, err := Run(Request{App: "pbzip2", Scale: 0.2, Seed: 3, Schemes: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []replay.Scheduler{replay.OrigS, replay.ELSCS, replay.SyncS, replay.MemS}
	if len(res.Schemes) != len(want) {
		t.Fatalf("got %d scheme replays, want %d", len(res.Schemes), len(want))
	}
	for i, s := range want {
		if res.Schemes[i].Sched != s || res.Schemes[i].Result == nil {
			t.Fatalf("scheme %d = %v (result %v), want %v", i, res.Schemes[i].Sched, res.Schemes[i].Result, s)
		}
	}
	stages := []string{"record", "replay", "classify", "quantify", "report"}
	if len(res.Timings) != len(stages) {
		t.Fatalf("got %d stage timings: %v", len(res.Timings), res.Timings)
	}
	for i, s := range stages {
		if res.Timings[i].Stage != s {
			t.Fatalf("stage %d = %q, want %q", i, res.Timings[i].Stage, s)
		}
	}
	a := res.Analysis
	if a.Recorded == nil || a.Report == nil || a.Transformed == nil ||
		a.OrigReplay == nil || a.FreeReplay == nil || a.Debug == nil {
		t.Fatalf("analysis artifacts missing: %+v", a)
	}
}

// TestTraceRequest analyzes a pre-recorded trace (the daemon's upload
// path): Record is skipped and the result matches an App-driven run of
// the same recording.
func TestTraceRequest(t *testing.T) {
	app := workload.MustGet("pbzip2")
	p := app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: 5})
	rec := sim.Run(p, sim.Config{Seed: 5})

	fromTrace, err := Run(Request{Trace: rec.Trace, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fromTrace.Analysis.Recorded != nil {
		t.Fatal("Record stage ran despite a supplied trace")
	}
	if fromTrace.Analysis.App != rec.Trace.App {
		t.Fatalf("app = %q, want %q", fromTrace.Analysis.App, rec.Trace.App)
	}
	if fromTrace.Report == "" {
		t.Fatal("empty report")
	}
}

// TestSideBySideJobsWidthIndependent: whole jobs run side by side on one
// Pipeline (as under cmd/experiments -workers and perfplayd -workers)
// share the replay engines' pool and the pipeline's caches; the reports
// must not depend on how many run at once. Every optional stage is on.
func TestSideBySideJobsWidthIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	req := Request{App: "mysql", Threads: 4, Scale: 0.2, Schemes: true, DetectRaces: true, VerifyTheorem1: true}
	seeds := []int64{1, 2, 3}
	var want []string
	for _, width := range []int{1, 4} {
		runtime.GOMAXPROCS(width)
		p := New(Options{})
		reports := make([]string, len(seeds))
		errs := make([]error, len(seeds))
		NewPool(width).Each(len(seeds), func(i int) {
			r := req
			r.Seed = seeds[i]
			var res *Result
			if res, errs[i] = p.Run(r); res != nil {
				reports[i] = res.Report
			}
		})
		for i, report := range reports {
			if errs[i] != nil || !strings.Contains(report, "PerfPlay analysis") {
				t.Fatalf("width %d: seed %d: report %q, err %v", width, seeds[i], report, errs[i])
			}
			if width == 1 {
				want = append(want, report)
			} else if report != want[i] {
				t.Fatalf("seed %d: width 4 report differs from width 1:\n%s\n---\n%s", seeds[i], want[i], report)
			}
		}
	}
}

// TestForkedJobsMatchSerial is the race oracle for the fork inside a
// job: uncached jobs over two workloads, every optional stage on, run
// side by side on one Pipeline — each forking its replays beside
// classification — and each report must equal the one a serial run of
// the same request renders. The second round repeats the requests, so
// its classify branches take the table-hit shard path while the first
// round's build fresh tables.
func TestForkedJobsMatchSerial(t *testing.T) {
	var reqs []Request
	for _, app := range []string{"mysql", "openldap"} {
		for _, seed := range []int64{1, 2} {
			reqs = append(reqs, Request{App: app, Threads: 4, Scale: 0.1, Seed: seed,
				Schemes: true, DetectRaces: true, VerifyTheorem1: true})
		}
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := Run(req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Report
	}
	p := New(Options{})
	for round := 0; round < 2; round++ {
		reports := make([]string, len(reqs))
		errs := make([]error, len(reqs))
		NewPool(len(reqs)).Each(len(reqs), func(i int) {
			var res *Result
			if res, errs[i] = p.Run(reqs[i]); res != nil {
				reports[i] = res.Report
			}
		})
		for i := range reqs {
			if errs[i] != nil || reports[i] != want[i] {
				t.Fatalf("round %d: %s seed %d: err %v; side-by-side report differs from serial:\n%s\n---\n%s",
					round, reqs[i].App, reqs[i].Seed, errs[i], want[i], reports[i])
			}
		}
	}
	if got := p.TableCacheLen(); got != len(reqs) {
		t.Fatalf("table cache holds %d entries, want %d", got, len(reqs))
	}
}

// TestReplayErrorWinsAcrossFork: a two-constraint cycle passes Validate,
// which only range-checks constraints, but no replay can step past it.
// The replay branch's error is the one Run returns even though
// classification ran beside it, and no goroutine outlives the job.
func TestReplayErrorWinsAcrossFork(t *testing.T) {
	app := workload.MustGet("pbzip2")
	tr := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: 3}), sim.Config{Seed: 3}).Trace
	pt := tr.PerThread()
	a, b := pt[0][0], pt[1][0]
	tr.Constraints = append(tr.Constraints,
		trace.Constraint{After: a, Before: b}, trace.Constraint{After: b, Before: a})

	base := runtime.NumGoroutine()
	_, err := Run(Request{Trace: tr})
	const want = "pipeline: ELSC-S replay: replay stuck under ELSC-S: "
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Run = %v, want an error starting %q", err, want)
	}
	// A finished worker has called wg.Done but may not have returned yet.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Fatalf("%d goroutines after Run, %d before", got, base)
	}
}

func TestCache(t *testing.T) {
	p := New(Options{CacheSize: 2})
	req := Request{App: "pbzip2", Scale: 0.2, Seed: 9}

	first, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run reported a cache hit")
	}

	second, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if second.Report != first.Report {
		t.Fatal("cached report differs")
	}

	// A different TopK also hits — it only affects rendering, which the
	// hit redoes at the requested depth.
	req.TopK = 2
	rerender, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !rerender.CacheHit {
		t.Fatal("different TopK missed the cache")
	}
	if rerender.Report == first.Report {
		t.Fatal("report not re-rendered for the new TopK")
	}
	if rerender.Request.TopK != 2 {
		t.Fatalf("hit kept the cached TopK: %d", rerender.Request.TopK)
	}
	req.TopK = 0

	// A different seed misses.
	req.Seed = 10
	third, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("different seed hit the cache")
	}

	// LRU eviction: capacity 2, three distinct keys → oldest evicted.
	req.Seed = 11
	if _, err := p.Run(req); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheLen(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	req.Seed = 9
	again, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("evicted entry still hit")
	}
}

// TestDigestKeyedTraceCache: trace requests are cacheable when the
// caller supplies the trace's content digest — two jobs over separately
// parsed copies of the same bytes share one cache entry — while
// digest-less trace requests keep bypassing the cache.
func TestDigestKeyedTraceCache(t *testing.T) {
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: 5}), sim.Config{Seed: 5})
	var buf bytes.Buffer
	if err := rec.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	digest := corpus.Digest(buf.Bytes())

	p := New(Options{CacheSize: 4})

	anon, err := p.Run(Request{Trace: rec.Trace})
	if err != nil {
		t.Fatal(err)
	}
	if anon.CacheHit || p.CacheLen() != 0 {
		t.Fatalf("digest-less trace request touched the cache (len %d)", p.CacheLen())
	}

	parse := func() *trace.Trace {
		tr, err := trace.ReadAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	first, err := p.Run(Request{Trace: parse(), TraceDigest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first digest run reported a cache hit")
	}
	second, err := p.Run(Request{Trace: parse(), TraceDigest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("same digest missed the cache despite a distinct *Trace")
	}
	if second.Report != first.Report {
		t.Fatal("cached digest report differs")
	}
	// The digest must key the analysis config too.
	withSchemes, err := p.Run(Request{Trace: parse(), TraceDigest: digest, Schemes: true})
	if err != nil {
		t.Fatal(err)
	}
	if withSchemes.CacheHit {
		t.Fatal("different config hit the digest cache")
	}
}

// TestTraceLoaderLazy: with a TraceLoader the blob is parsed only on a
// cache miss — a repeat of an already-analyzed digest never invokes the
// loader, and its re-rendered report (including the recorded-total
// line, which normally comes from the trace header) is byte-identical.
func TestTraceLoaderLazy(t *testing.T) {
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: 5}), sim.Config{Seed: 5})
	var buf bytes.Buffer
	if err := rec.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	digest := corpus.Digest(buf.Bytes())

	p := New(Options{CacheSize: 4})
	calls := 0
	req := Request{
		TraceLoader: func() (*trace.Trace, error) {
			calls++
			return trace.ReadAny(bytes.NewReader(buf.Bytes()))
		},
		TraceDigest: digest,
		Schemes:     true,
	}
	first, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || calls != 1 {
		t.Fatalf("first run: hit=%v loader calls=%d", first.CacheHit, calls)
	}
	wantRecorded := fmt.Sprintf("recorded %v", rec.Trace.TotalTime)
	if !strings.Contains(first.Report, wantRecorded) {
		t.Fatalf("report lacks %q:\n%s", wantRecorded, first.Report)
	}

	second, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("repeat missed the cache")
	}
	if calls != 1 {
		t.Fatalf("cache hit invoked the loader (%d calls)", calls)
	}
	if second.Report != first.Report {
		t.Fatalf("re-rendered report differs:\nfirst:\n%s\nsecond:\n%s", first.Report, second.Report)
	}

	// Loader failures surface as run errors, not panics.
	bad := Request{
		TraceLoader: func() (*trace.Trace, error) { return nil, fmt.Errorf("blob vanished") },
		TraceDigest: corpus.Digest([]byte("other")),
	}
	if _, err := p.Run(bad); err == nil || !strings.Contains(err.Error(), "blob vanished") {
		t.Fatalf("loader error lost: %v", err)
	}
}

func TestPoolEach(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var hits [100]atomic.Int32
		NewPool(workers).Each(len(hits), func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
	NewPool(4).Each(0, func(int) { t.Fatal("task ran for n=0") })
}

func TestPoolPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	NewPool(4).Each(16, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

// TestProgramPanicReachesCaller: the record stage runs the program's
// bodies on the goroutine that called Run, so a body that panics unwinds
// through Run — where perfplayd's executeJob recovers it into a failed
// job — rather than killing the process from a goroutine of its own.
func TestProgramPanicReachesCaller(t *testing.T) {
	p := sim.NewProgram("boom")
	p.AddThread(func(th *sim.Thread) {
		th.Compute(10)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the body's panic", r)
		}
	}()
	Run(Request{Program: p})
	t.Fatal("Run returned")
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(Request{App: "no-such-app"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestEmptyTraceRejected: Validate is vacuous on a zero-event trace (the
// shape a stray JSON object decodes to), so the record stage must
// reject it rather than emit an all-zero analysis.
func TestEmptyTraceRejected(t *testing.T) {
	if _, err := Run(Request{Trace: trace.New("empty", 2)}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestUnknownWriteOpRejected: a decodable trace whose write names an
// operation past WOr fails the record stage's Validate; it used to reach
// identification, whose memo key has no letter for it.
func TestUnknownWriteOpRejected(t *testing.T) {
	tr := trace.New("op", 2)
	for th := int32(0); th < 2; th++ {
		tr.Append(trace.Event{Thread: th, Kind: trace.KLockAcq, Lock: 1})
		tr.Append(trace.Event{Thread: th, Kind: trace.KWrite, Addr: 5, Value: 1, Op: 7})
		tr.Append(trace.Event{Thread: th, Kind: trace.KLockRel, Lock: 1})
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.ReadAny(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Request{Trace: decoded}); err == nil || !strings.Contains(err.Error(), "write op") {
		t.Fatalf("Run = %v, want the unknown write op reported", err)
	}
	for i := range decoded.Events {
		decoded.Events[i].Op = trace.WOr
	}
	if _, err := Run(Request{Trace: decoded}); err != nil {
		t.Fatalf("the same trace with a known op: %v", err)
	}
}

// TestTableCacheSkipsReplays: the second job over the same digest —
// with different reporting flags, so the result cache misses — reuses
// the cached verdict table and performs zero reversed replays.
func TestTableCacheSkipsReplays(t *testing.T) {
	app := workload.MustGet("openldap")
	res := sim.Run(app.Build(workload.Config{Threads: 4, Scale: 0.2, Seed: 7}), sim.Config{Seed: 7})
	p := New(Options{CacheSize: 8})

	req := Request{Trace: res.Trace, TraceDigest: "sha256:testfixture", TopK: 5}
	first, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run claims a cache hit")
	}
	if p.TableCacheLen() != 1 {
		t.Fatalf("table cache holds %d entries, want 1", p.TableCacheLen())
	}

	req2 := req
	req2.DetectRaces = true // different result-cache key, same table key
	second, err := p.Run(req2)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHit {
		t.Fatal("second run must miss the result cache (flags differ)")
	}
	if got, want := second.Analysis.Report.ReversedReplays, first.Analysis.Report.ReversedReplays; got != want {
		t.Fatalf("cached-table run reports %d replays, want %d (table's)", got, want)
	}
	// DetectRaces only adds a races line; the classification itself must
	// be pair-for-pair what the build pass produced.
	fp, sp := first.Analysis.Report.Pairs, second.Analysis.Report.Pairs
	if len(fp) != len(sp) {
		t.Fatalf("cached-table run: %d pairs, want %d", len(sp), len(fp))
	}
	for i := range fp {
		if fp[i] != sp[i] {
			t.Fatalf("cached-table pair %d differs: %+v vs %+v", i, sp[i], fp[i])
		}
	}
	if second.Analysis.Report.Counts != first.Analysis.Report.Counts {
		t.Fatalf("cached-table counts differ: %v vs %v",
			second.Analysis.Report.Counts, first.Analysis.Report.Counts)
	}
}

// TestThreadAxisReports: above four threads — mysql, openldap and dedup
// at 32 threads, ×0.05, seed 42 — a Run report is byte for byte the
// report of a re-run against the verdict table the first run built (the
// table-hit path a daemon takes for a stored trace, which replays
// nothing), and the re-run is a table hit.
func TestThreadAxisReports(t *testing.T) {
	for _, app := range []string{"mysql", "openldap", "dedup"} {
		t.Run(app, func(t *testing.T) {
			rec := sim.Run(workload.MustGet(app).Build(workload.Config{Threads: 32, Scale: 0.05, Seed: 42}), sim.Config{Seed: 42})
			req := Request{Trace: rec.Trace, TraceDigest: "sha256:thread-axis-" + app}
			src := New(Options{CacheSize: 1})
			want, err := src.Run(req)
			if err != nil {
				t.Fatal(err)
			}
			key, ok := src.TableKeyFor(req)
			if !ok {
				t.Fatal("digest request has no table key")
			}
			wt, ok := src.ExportTable(key)
			if !ok {
				t.Fatal("no table cached after the run")
			}
			reg := telemetry.NewRegistry()
			dst := New(Options{CacheSize: 1, Metrics: reg})
			if !dst.ImportTable(key, wt.Table) {
				t.Fatal("table import refused")
			}
			got, err := dst.Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if st := cacheRequests(t, reg); st["table/hit"] != 1 || st["table/miss"] != 0 {
				t.Fatalf("re-run cache requests %v, want one table hit", st)
			}
			if got.Report != want.Report {
				t.Fatalf("table-hit re-run report differs:\n%s\nfirst run:\n%s", got.Report, want.Report)
			}
		})
	}
}
