// Package perfplay_test hosts the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (Sec. 6), plus
// micro-benchmarks of the pipeline stages. Each experiment benchmark
// regenerates its table/figure once per iteration and reports it with -v
// via b.Log on the first iteration; run
//
//	go test -bench=. -benchmem
//
// or use cmd/experiments to print the artifacts directly.
package perfplay_test

import (
	"bytes"
	"runtime"
	"testing"

	"perfplay/internal/elision"
	"perfplay/internal/experiments"
	"perfplay/internal/perfdbg"
	"perfplay/internal/pipeline"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// benchScale keeps the per-iteration experiment runs tractable while
// preserving every shape; cmd/experiments defaults to full scale.
const benchScale = 0.25

func benchCfg() experiments.Config {
	return experiments.Config{Scale: benchScale, Seed: 42, Replays: 5}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(benchCfg())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure2(benchCfg())
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure13(benchCfg())
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure14(benchCfg())
		if i == 0 {
			b.Log("\n" + f.String())
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(benchCfg())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table3(benchCfg())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkFigure15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs := experiments.Figure15(benchCfg())
		if i == 0 {
			for _, f := range fs {
				b.Log("\n" + f.String())
			}
		}
	}
}

func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs := experiments.Figure16(benchCfg())
		if i == 0 {
			for _, f := range fs {
				b.Log("\n" + f.String())
			}
		}
	}
}

func BenchmarkFigure19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs := experiments.Figure19(benchCfg())
		if i == 0 {
			for _, f := range fs {
				b.Log("\n" + f.String())
			}
		}
	}
}

// ---- pipeline-stage micro-benchmarks (ablation view) ----

// recordApp records a modelled application on two threads.
func recordApp(b *testing.B, name string) *sim.Result {
	b.Helper()
	return recordAppThreads(b, name, 2)
}

func recordAppThreads(b *testing.B, name string, threads int) *sim.Result {
	b.Helper()
	app := workload.MustGet(name)
	p := app.Build(workload.Config{Threads: threads, Scale: benchScale, Seed: 42})
	return sim.Run(p, sim.Config{Seed: 42})
}

// The record layer as bench/ measures it (sim.record_ns_per_event,
// sim.record_bytes_per_event): build and record at four threads.
func BenchmarkRecordFluidanimate(b *testing.B) { benchRecord(b, "fluidanimate", 4) }

func benchRecord(b *testing.B, name string, threads int) {
	b.ReportAllocs()
	var events int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		events = len(recordAppThreads(b, name, threads).Trace.Events)
	}
	runtime.ReadMemStats(&m1)
	recorded := float64(events) * float64(b.N)
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recorded, "ns/event")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/recorded, "B/event")
}

func BenchmarkExtractCS(b *testing.B) {
	rec := recordApp(b, "fluidanimate")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		css := rec.Trace.ExtractCS()
		b.ReportMetric(float64(len(css)), "critsecs")
	}
}

// Identification alone, per classified pair as bench/ reports it
// (ulcp.build_table_ns_per_pair).
func BenchmarkIdentify(b *testing.B) {
	rec := recordApp(b, "mysql")
	css := rec.Trace.ExtractCS()
	var rep *ulcp.Report
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	b.ReportAllocs()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		rep = ulcp.Identify(rec.Trace, css, ulcp.Options{})
	}
	runtime.ReadMemStats(&m1)
	pairs := float64(len(rep.Pairs)) * float64(b.N)
	b.ReportMetric(float64(rep.NumULCPs()), "ulcps")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/pairs, "B/pair")
}

// Identification on the cli-scan shape (fluidanimate, 4 threads, ×0.04,
// seed 42): most pairs conflict and fall into a handful of classes, so
// this times the class memo and the RULE-1 scan more than replays.
func BenchmarkIdentifyConflicts(b *testing.B) {
	p := workload.MustGet("fluidanimate").Build(workload.Config{Threads: 4, Scale: 0.04, Seed: 42})
	tr := sim.Run(p, sim.Config{Seed: 42}).Trace.Warm()
	css := tr.ExtractCS()
	var rep *ulcp.Report
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	b.ReportAllocs()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		_, rep = ulcp.BuildVerdictTable(tr, css, ulcp.Options{})
	}
	runtime.ReadMemStats(&m1)
	pairs := float64(len(rep.Pairs)) * float64(b.N)
	b.ReportMetric(float64(rep.Counts[ulcp.TLCP]+rep.Counts[ulcp.Benign]), "conflicts")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/pairs, "B/pair")
}

// The path every table-hit re-run takes: Identify's walk against a
// prebuilt verdict table (zero replays).
func BenchmarkIdentifyTableHit(b *testing.B) {
	rec := recordAppThreads(b, "mysql", 4) // BenchmarkPipelineSerial's input
	css := rec.Trace.ExtractCS()
	table, _ := ulcp.BuildVerdictTable(rec.Trace, css, ulcp.Options{})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := ulcp.IdentifyWithVerdicts(rec.Trace, css, ulcp.Options{}, table)
		if rep.ReversedReplays != table.Replays {
			b.Fatalf("the table-backed walk performed %d replays", rep.ReversedReplays-table.Replays)
		}
		b.ReportMetric(float64(len(rep.Pairs)), "pairs")
	}
}

// Identification on the thread axis (mysql, 32 threads, ×0.25, seed 42:
// 79,904 events), where a section pairs with about six sections of every
// peer thread: the build pass, and the table-hit walk a re-run against a
// cached verdict table takes.
func BenchmarkIdentifyWide(b *testing.B) {
	p := workload.MustGet("mysql").Build(workload.Config{Threads: 32, Scale: 0.25, Seed: 42})
	tr := sim.Run(p, sim.Config{Seed: 42}).Trace.Warm()
	css := tr.ExtractCS()
	table, _ := ulcp.BuildVerdictTable(tr, css, ulcp.Options{})
	for _, c := range []struct {
		name string
		pass func() *ulcp.Report
	}{
		{"build", func() *ulcp.Report { _, rep := ulcp.BuildVerdictTable(tr, css, ulcp.Options{}); return rep }},
		{"table-hit", func() *ulcp.Report { return ulcp.IdentifyWithVerdicts(tr, css, ulcp.Options{}, table) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rep *ulcp.Report
			var m0, m1 runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				rep = c.pass()
			}
			runtime.ReadMemStats(&m1)
			pairs := float64(len(rep.Pairs)) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/pairs, "B/pair")
		})
	}
}

// Quantification alone (Eq. 1, Algorithm 2, Eq. 2) over replays made once.
func BenchmarkEvaluate(b *testing.B) {
	rec := recordAppThreads(b, "mysql", 4) // BenchmarkPipelineSerial's input
	css := rec.Trace.ExtractCS()
	rep := ulcp.Identify(rec.Trace, css, ulcp.Options{})
	tres, err := transform.Apply(rec.Trace, css, rep)
	if err != nil {
		b.Fatal(err)
	}
	orig, err := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		b.Fatal(err)
	}
	free, err := replay.Run(tres.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := perfdbg.Evaluate(rec.Trace, css, rep, orig, free, rec.Trace.NumThreads)
		b.ReportMetric(float64(len(d.Groups)), "groups")
	}
	b.ReportMetric(float64(rep.NumULCPs()), "ulcps")
}

func BenchmarkTransform(b *testing.B) {
	rec := recordApp(b, "mysql")
	css := rec.Trace.ExtractCS()
	rep := ulcp.Identify(rec.Trace, css, ulcp.Options{})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Apply(rec.Trace, css, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// The transformation as the default run takes it: the plan alone, no
// second trace.
func BenchmarkTransformPlan(b *testing.B) {
	rec := recordApp(b, "mysql")
	css := rec.Trace.ExtractCS()
	rep := ulcp.Identify(rec.Trace, css, ulcp.Options{})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := transform.Plan(css, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// Replay micro-benchmarks: one per scheduler, measuring events/op.
func benchReplay(b *testing.B, sched replay.Scheduler) {
	rec := recordApp(b, "vips")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := replay.Run(rec.Trace, replay.Options{Sched: sched, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(float64(len(rec.Trace.Events)), "events")
}

func BenchmarkReplayOrigS(b *testing.B) { benchReplay(b, replay.OrigS) }
func BenchmarkReplayELSCS(b *testing.B) { benchReplay(b, replay.ELSCS) }
func BenchmarkReplaySyncS(b *testing.B) { benchReplay(b, replay.SyncS) }
func BenchmarkReplayMemS(b *testing.B)  { benchReplay(b, replay.MemS) }

func BenchmarkFullPipelineOpenldap(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(pipeline.Request{App: "openldap", Threads: 2, Scale: benchScale, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Analysis.Debug.NormalizedDegradation()*100, "deg%")
	}
}

// Pipeline throughput: the full staged analysis (record, four-scheme
// replay, classification, quantification, report).
func BenchmarkPipelineSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.Run(pipeline.Request{
			App: "mysql", Threads: 4, Scale: benchScale, Seed: 42,
			Schemes: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Analysis.Report.NumULCPs()), "ulcps")
	}
}

// Ablation: lockset replay with and without the dynamic locking strategy.
func benchLocksetReplay(b *testing.B, dls bool) {
	rec := recordApp(b, "dedup")
	css := rec.Trace.ExtractCS()
	rep := ulcp.Identify(rec.Trace, css, ulcp.Options{})
	tr, err := transform.Apply(rec.Trace, css, rep)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replay.Run(tr.Trace, replay.Options{Sched: replay.ELSCS, DLS: dls, LocksetCost: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.LocksetOverhead), "overhead-ticks")
	}
}

func BenchmarkLocksetReplayNoDLS(b *testing.B) { benchLocksetReplay(b, false) }
func BenchmarkLocksetReplayDLS(b *testing.B)   { benchLocksetReplay(b, true) }

// BenchmarkLocksetReplayDLS's replay as the default run takes it: the
// recording under the plan, not the materialised trace.
func BenchmarkPlanReplay(b *testing.B) {
	rec := recordApp(b, "dedup")
	css := rec.Trace.ExtractCS()
	tf, err := transform.Plan(css, ulcp.Identify(rec.Trace, css, ulcp.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := replay.Run(rec.Trace, replay.Options{Sched: replay.ELSCS, DLS: true, LocksetCost: 8, Plan: tf.Plan})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.LocksetOverhead), "overhead-ticks")
	}
}

// Trace serialization round-trip throughput.
func BenchmarkTraceBinaryRoundTrip(b *testing.B) {
	rec := recordApp(b, "x264")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := rec.Trace.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.n))
	}
}

// Decoding a stored trace from the bytes in hand, as corpus.Load does.
func BenchmarkTraceBinaryDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := recordApp(b, "x264").Trace.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Decode(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

func BenchmarkTableLE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableLE(benchCfg())
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// Ablation: speculative lock elision vs the locked execution on one
// ULCP-heavy and one conflict-heavy benchmark.
func benchElision(b *testing.B, app string) {
	rec := recordApp(b, app)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := elision.Run(rec.Trace, elision.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AbortRate()*100, "abort%")
	}
}

func BenchmarkElisionMySQL(b *testing.B)     { benchElision(b, "mysql") }
func BenchmarkElisionBodytrack(b *testing.B) { benchElision(b, "bodytrack") }

// Simulator throughput on a second profile: vips, where one hot
// conflicting lock keeps a waiter queued at most releases.
func BenchmarkSimThroughput(b *testing.B) { benchRecord(b, "vips", 2) }
