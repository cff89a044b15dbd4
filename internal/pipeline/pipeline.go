// Package pipeline is the analysis orchestrator: it runs the PerfPlay
// stages — Record → Replay ∥ Classify → Quantify → Report — as one
// staged job with a typed Request/Result API. A job runs on the
// goroutine that called Run, with exactly one fork: once the trace is
// recorded and warmed, the recording's replays run beside
// classification, which never reads them, and the two join before
// quantify. Parallelism lives across whole jobs side by side
// (cmd/experiments -workers, perfplayd -workers) plus that one fork. A
// job never leaves its node mid-run: the cluster moves whole jobs
// (stealing) and finished results/tables (cache probes).
//
// The stage order is the contract: schemes replay in scheduler order,
// classification shards run in sorted lock order, and the report is a
// pure function of the request. A Pipeline value adds an LRU result
// cache keyed by (workload, input, threads, seed, config) on top; it
// retains each finished job's core.Summary and nothing the job analyzed.
// exec is the module's single definition of the stage order:
// cmd/perfplay, cmd/experiments (every paper table and figure), the
// examples, the bench harness and the perfplayd daemon all drive their
// analyses through this package.
package pipeline

import (
	"cmp"
	"fmt"
	"time"

	"perfplay/internal/core"
	"perfplay/internal/perfdbg"
	"perfplay/internal/race"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/telemetry"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/verify"
	"perfplay/internal/workload"
)

// Request describes one analysis job. Exactly one input source applies:
// a registered workload name (App), a pre-built simulator program
// (Program), or a pre-recorded trace (Trace) — the latter two skip the
// workload registry and, for Trace, the Record stage entirely.
type Request struct {
	// App names a registered workload (see internal/workload).
	App string
	// Program, when set, overrides App with a pre-built program
	// (appendix cases, hand-written sim programs).
	Program *sim.Program
	// Trace, when set, is analyzed directly — the Record stage is
	// skipped (uploaded or on-disk traces).
	Trace *trace.Trace
	// TraceDigest, when set alongside Trace, is the trace's content
	// address (the corpus "sha256:..." digest of its serialized bytes).
	// It re-enables the result cache for trace requests: two jobs over
	// the same stored trace share one cache entry even though they
	// parsed separate *trace.Trace values. Callers must only pass a
	// digest that really identifies Trace's content.
	TraceDigest string
	// TraceBytes is unread: it stays declared only because bench/layers.go
	// still sets it (see ROADMAP "Keep the spine honest").
	TraceBytes int64
	// TraceLoader, set with TraceDigest instead of Trace, defers
	// loading to the moment the pipeline actually needs the events: a
	// digest-keyed cache hit returns without ever invoking it, so
	// re-analyzing an already-analyzed stored trace costs no blob read
	// and no parse. Ignored when Trace is set.
	TraceLoader func() (*trace.Trace, error)

	// Threads, Input, Scale and Seed parameterize the recording;
	// zero values select 2 threads, simlarge and scale 1.0.
	Threads int
	Input   workload.InputSize
	Scale   float64
	Seed    int64

	// TopK bounds the ranked recommendations in the rendered report
	// (0 = 5).
	TopK int
	// Workers is unread: it stays declared only because bench/layers.go
	// still sets it (see ROADMAP "Keep the spine honest").
	Workers int
	// Schemes additionally replays the recorded trace under all four
	// schedulers (ORIG/ELSC/SYNC/MEM).
	Schemes bool

	// DetectRaces runs the happens-before detector over the ULCP-free
	// replay (Theorem 1's fallback reporting), which reports at most
	// maxRaces races.
	DetectRaces bool
	// VerifyTheorem1 runs the full Theorem 1 check (outcome comparison
	// plus race attribution) and stores the report on the analysis.
	VerifyTheorem1 bool
}

// maxRaces caps the races the detector and the Theorem 1 check report.
const maxRaces = 32

// normalize applies defaults so equivalent requests share a cache key.
func (r Request) normalize() Request {
	if r.Threads == 0 {
		r.Threads = 2
	}
	if r.Scale == 0 {
		r.Scale = 1.0
	}
	r.TopK = depthOrDefault(r.TopK)
	return r
}

// depthOrDefault maps a report depth to the one actually rendered.
// Clamped, not just defaulted: a negative depth would panic the
// recommendation slice, and the same job must behave identically
// whether a local run, a cache hit or a peer's export serves it.
func depthOrDefault(topK int) int {
	if topK <= 0 {
		return 5
	}
	return topK
}

// cacheable reports whether the request is a pure function of its cache
// key. Workload requests are keyed by name; trace requests are keyed by
// content digest when the caller supplies one. Programs and digest-less
// traces are identified by pointer only and therefore bypass the cache.
func (r Request) cacheable() bool {
	if r.Program != nil {
		return false
	}
	if r.Trace != nil || r.TraceLoader != nil {
		return r.TraceDigest != ""
	}
	return r.App != ""
}

// CacheKey canonically encodes every field that affects the computed
// artifacts. TopK is deliberately excluded: it only affects report
// rendering, which a cache hit redoes at the requested depth. For
// digest-keyed trace requests the record-stage fields (Input, Threads,
// Scale, Seed) are inert — the Record stage is skipped — but they stay
// in the key, so callers should leave them zero to share entries.
func (r Request) CacheKey() string {
	src := r.App
	if r.TraceDigest != "" {
		src = r.TraceDigest
	}
	return fmt.Sprintf("%s|in%d|t%d|s%g|seed%d|sch%t|races%t|v%t",
		src, r.Input, r.Threads, r.Scale, r.Seed, r.Schemes, r.DetectRaces, r.VerifyTheorem1)
}

// SchemeReplay is one scheduler's replay of the recorded trace.
type SchemeReplay struct {
	Sched  replay.Scheduler
	Result *replay.Result
}

// Result bundles a finished job: its summary, the ranked report
// rendered from it at Request.TopK and, for a job this call actually
// executed, the full analysis artifacts and optional scheme replays.
//
// A cache hit has no artifacts: Analysis and Schemes are nil, because
// the cache retains summaries, never traces or replays. Callers that
// read artifacts run uncached (Run, or a Pipeline with CacheSize 0).
// Summary is shared with every other holder of the same key and must
// not be mutated.
type Result struct {
	Request  Request
	Analysis *core.Analysis
	Schemes  []SchemeReplay
	Summary  *core.Summary
	Report   string
	// Timings are Summary.Timings: on a cache hit, those of the run that
	// computed the summary.
	Timings  []core.StageTiming
	CacheHit bool
}

// Pipeline is a long-lived orchestrator with a result cache. The zero
// value is not usable; construct with New.
type Pipeline struct {
	cache  *lruCache[*core.Summary]
	tables *lruCache[*ulcp.VerdictTable]

	// Cache traffic and stage timings live in telemetry instruments,
	// rendered by the owner's /metrics.
	resultHits, resultMisses *telemetry.Counter
	tableHits, tableMisses   *telemetry.Counter
	stageDur                 *telemetry.HistogramVec
}

// Options configures a Pipeline.
type Options struct {
	// CacheSize bounds the LRU result cache (0 disables caching).
	CacheSize int
	// Metrics, when set, hosts the pipeline's instruments (stage
	// duration histograms, cache hit/miss counters). Only cacheable
	// (digest- or workload-keyed) requests count as result lookups; the
	// table counters tick once per table lookup during a cache-missed
	// execution. Nil uses a private registry, so the instruments always
	// exist; they just aren't exported anywhere.
	Metrics *telemetry.Registry
}

// tableCacheSize bounds the verdict-table cache, keyed by the analyzed
// trace alone. The result cache misses whenever a reporting flag
// differs, yet the table — the replay-heavy part of classification —
// depends on no flag, so a second job over the same trace skips every
// reversed replay even on a result-cache miss.
const tableCacheSize = 64

// New constructs a Pipeline.
func New(opts Options) *Pipeline {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	cacheReqs := reg.NewCounterVec("perfplay_pipeline_cache_requests_total",
		"Result/table cache lookups by outcome.", "cache", "outcome")
	return &Pipeline{
		cache:        newLRU[*core.Summary](opts.CacheSize),
		tables:       newLRU[*ulcp.VerdictTable](tableCacheSize),
		resultHits:   cacheReqs.With("result", "hit"),
		resultMisses: cacheReqs.With("result", "miss"),
		tableHits:    cacheReqs.With("table", "hit"),
		tableMisses:  cacheReqs.With("table", "miss"),
		stageDur: reg.NewHistogramVec("perfplay_pipeline_stage_duration_seconds",
			"Wall time of each pipeline stage.", telemetry.DurationBuckets, "stage"),
	}
}

// CacheLen reports how many results the cache currently holds.
func (p *Pipeline) CacheLen() int { return p.cache.len() }

// TableCacheLen reports how many verdict tables are cached.
func (p *Pipeline) TableCacheLen() int { return p.tables.len() }

// Run executes the staged pipeline for one request, consulting the
// cache first for cacheable requests.
func (p *Pipeline) Run(req Request) (*Result, error) {
	req = req.normalize()
	var key string
	if p.cache != nil && req.cacheable() {
		key = req.CacheKey()
		if sum, ok := p.cache.get(key); ok {
			p.resultHits.Add(1)
			// TopK is outside the key — it only shapes the rendered
			// report, so a hit renders at the requested depth.
			return &Result{
				Request: req, Summary: sum, Report: sum.Render(req.TopK),
				Timings: sum.Timings, CacheHit: true,
			}, nil
		}
		p.resultMisses.Add(1)
	}
	res, err := p.exec(req)
	if err != nil {
		return nil, err
	}
	if key != "" {
		p.cache.put(key, res.Summary)
	}
	return res, nil
}

// Run executes one request without a cache; the convenience entry point
// for one-shot callers (CLI, benchmarks).
func Run(req Request) (*Result, error) {
	return New(Options{}).Run(req)
}

// tableKey derives the verdict-table cache key: the fields that define
// the analyzed trace's content (digest, or the record-stage tuple for
// workload requests) and nothing else, so jobs differing only in
// reporting flags share one table.
func tableKey(req Request) string {
	src := req.App
	if req.TraceDigest != "" {
		src = req.TraceDigest
	} else if src == "" {
		return "" // pointer-identified program or digest-less trace
	}
	return fmt.Sprintf("%s|in%d|t%d|s%g|seed%d", src, req.Input, req.Threads, req.Scale, req.Seed)
}

// exec is the staged orchestrator. It runs on the calling goroutine
// except for its one fork: once the record stage has warmed the trace,
// the replay and classify stages run side by side, since neither reads
// what the other computes, and join before quantify.
func (p *Pipeline) exec(req Request) (*Result, error) {
	res := &Result{Request: req}
	a := &core.Analysis{}
	res.Analysis = a

	timed := func(name string, f func() error) (core.StageTiming, error) {
		start := time.Now()
		err := f()
		t := core.StageTiming{Stage: name, Wall: time.Since(start), Start: start}
		p.stageDur.With(name).Observe(t.Wall.Seconds())
		return t, err
	}
	stage := func(name string, f func() error) error {
		t, err := timed(name, f)
		res.Timings = append(res.Timings, t)
		return err
	}

	// Stage 1 — Record: build and run the workload under the recording
	// simulator, unless the caller supplied a trace. The trace is warmed
	// here, once, so the two branches below and every later stage can
	// read it concurrently.
	tr := req.Trace
	if err := stage("record", func() error {
		if tr == nil && req.TraceLoader != nil {
			var err error
			if tr, err = req.TraceLoader(); err != nil {
				return fmt.Errorf("pipeline: load trace: %w", err)
			}
		}
		if tr == nil {
			prog := req.Program
			if prog == nil {
				app, ok := workload.Get(req.App)
				if !ok {
					return fmt.Errorf("pipeline: unknown workload %q", req.App)
				}
				prog = app.Build(workload.Config{
					Threads: req.Threads, Input: req.Input, Scale: req.Scale, Seed: req.Seed,
				})
			}
			a.Recorded = sim.Run(prog, sim.Config{Seed: req.Seed})
			tr = a.Recorded.Trace
		}
		if err := tr.Validate(); err != nil {
			return err
		}
		// Validate's loops are vacuous on an event-free trace, which is
		// what a stray JSON object decodes to — reject it here so every
		// front end reports an error instead of an all-zero analysis.
		if len(tr.Events) == 0 || tr.NumThreads == 0 {
			return fmt.Errorf("pipeline: empty trace (%d events, %d threads)",
				len(tr.Events), tr.NumThreads)
		}
		tr.Warm()
		return nil
	}); err != nil {
		return nil, err
	}
	a.App = tr.App

	// The job's replays run on one engine: the replay branch lays the
	// trace out for its first replay, and every later one, quantify's
	// included, lays out only its own run.
	eng := replay.NewEngine()
	defer eng.Release()

	// Stage 2 — Replay: the scheduler replays of the recorded trace. The
	// ELSC run doubles as the quantification baseline (core's
	// OrigReplay), so it always runs; the other three schemes run beside
	// it, in scheduler order, when requested. The branch is the shorter
	// of the two on the default op, so it also allocates the Result of
	// quantify's replay. Writes only OrigReplay and Schemes.
	replayStage := func() error {
		scheds := []replay.Scheduler{replay.ELSCS}
		if req.Schemes {
			scheds = []replay.Scheduler{replay.OrigS, replay.ELSCS, replay.SyncS, replay.MemS}
		}
		for _, s := range scheds {
			r, err := eng.Run(tr, replay.Options{Sched: s})
			if err != nil {
				return fmt.Errorf("pipeline: %v replay: %w", s, err)
			}
			if s == replay.ELSCS {
				a.OrigReplay = r
			}
			if req.Schemes {
				res.Schemes = append(res.Schemes, SchemeReplay{Sched: s, Result: r})
			}
		}
		eng.Reserve()
		return nil
	}

	// Stage 3 — Classify: extract critical sections, classify their
	// pairs — against the reversed-replay verdict table cached by trace
	// digest, or by the one identification pass that builds it — and
	// build the ULCP-free schedule as a plan over the recording. Both
	// paths below produce the same report bytes: the walk against the
	// table is a pure function of (trace, table), and the table itself is
	// a pure function of the trace. Writes only CSs, Report and
	// Transformed.
	classifyStage := func() error {
		a.CSs = tr.ExtractCS()
		key := tableKey(req)
		if table, ok := p.tables.get(key); key != "" && ok {
			// Cached table: the same walk, without a single reversed
			// replay.
			p.tableHits.Add(1)
			a.Report = ulcp.IdentifyWithVerdicts(tr, a.CSs, ulcp.Options{}, table)
		} else {
			if key != "" {
				p.tableMisses.Add(1)
			}
			// One full identification pass yields both the table and the
			// finished report; the replays it spends are the per-trace
			// total (recurring region pairs pay once, not once per lock).
			var table *ulcp.VerdictTable
			table, a.Report = ulcp.BuildVerdictTable(tr, a.CSs, ulcp.Options{})
			if key != "" {
				p.tables.put(key, table)
			}
		}
		var err error
		a.Transformed, err = transform.Plan(a.CSs, a.Report)
		return err
	}

	// The fork: each branch fills its own timing and error slot, so the
	// timings keep the stage order and, when both fail, the replay error
	// wins, as it did when replay ran first. Both branches have returned
	// (or a panic has re-raised here) before exec goes on.
	names := [2]string{"replay", "classify"}
	branches := [2]func() error{replayStage, classifyStage}
	var (
		forked [2]core.StageTiming
		errs   [2]error
	)
	NewPool(2).Each(2, func(i int) {
		forked[i], errs[i] = timed(names[i], branches[i])
	})
	res.Timings = append(res.Timings, forked[:]...)
	if err := cmp.Or(errs[:]...); err != nil {
		return nil, err
	}

	// Stage 4 — Quantify: replay the recording under the ULCP-free plan
	// and ELSC; when requested, run the happens-before detector, which
	// walks the recording under the plan in the order that replay started
	// its events, and the Theorem 1 check over the two ELSC replays, which
	// shares that order; then evaluate Eq. 1/Eq. 2.
	if err := stage("quantify", func() error {
		plan := a.Transformed.Plan
		var err error
		a.FreeReplay, err = eng.Run(tr, replay.Options{Sched: replay.ELSCS, Plan: plan})
		if err != nil {
			return fmt.Errorf("pipeline: ULCP-free replay: %w", err)
		}
		var order []int32
		if req.DetectRaces {
			order = race.OrderByStart(a.FreeReplay.EventStart)
			a.Races = race.Detect(tr, plan, order, maxRaces)
		}
		if req.VerifyTheorem1 {
			a.Theorem1 = verify.Check(tr, plan, a.OrigReplay, a.FreeReplay, order, maxRaces)
		}
		a.Debug = perfdbg.Evaluate(tr, a.CSs, a.Report, a.OrigReplay, a.FreeReplay, tr.NumThreads)
		return nil
	}); err != nil {
		return nil, err
	}

	// Stage 5 — Report: distill the artifacts into the summary and render
	// the ranked report from it. Everything in it is a deterministic
	// function of the artifacts.
	_ = stage("report", func() error {
		sum := a.Summarize()
		// The recording's own wall time comes from the trace header, not
		// from a re-replay (which can differ whenever ELSC reorders
		// contended acquisitions).
		sum.Recorded = tr.TotalTime
		for _, sr := range res.Schemes {
			sum.Schemes = append(sum.Schemes, core.SchemeTotal{Sched: sr.Sched, Total: sr.Result.Total})
		}
		res.Summary = sum
		res.Report = sum.Render(req.TopK)
		return nil
	})
	res.Summary.Timings = res.Timings
	return res, nil
}
