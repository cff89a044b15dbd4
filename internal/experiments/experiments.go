// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 6) on the simulated substrate. Each entry point returns
// a report.Table or report.Figure whose rows/series mirror the paper's;
// EXPERIMENTS.md records the measured values next to the published ones.
package experiments

import (
	"fmt"

	"perfplay/internal/core"
	"perfplay/internal/elision"
	"perfplay/internal/pipeline"
	"perfplay/internal/replay"
	"perfplay/internal/report"
	"perfplay/internal/sim"
	"perfplay/internal/staticcheck"
	"perfplay/internal/stats"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// Config scales the whole harness.
type Config struct {
	// Scale multiplies every workload's iteration counts. 1.0 is paper
	// scale; tests use smaller values.
	Scale float64
	// Seed drives recording determinism.
	Seed int64
	// Replays is the per-scheme replay count for Fig. 13 (default 10, as
	// in the paper).
	Replays int
	// LocksetCost is the Table 3 maintenance cost per lockset member
	// (default 12 ticks against a 40-tick lock acquisition).
	LocksetCost vtime.Duration
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Replays == 0 {
		c.Replays = 10
	}
	if c.LocksetCost == 0 {
		c.LocksetCost = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// identify records an app and runs identification only (Table 1, Fig. 2).
func identify(app *workload.App, wcfg workload.Config) (*sim.Result, *ulcp.Report) {
	p := app.Build(wcfg)
	rec := sim.Run(p, sim.Config{Seed: wcfg.Seed})
	return rec, ulcp.Identify(rec.Trace, rec.Trace.ExtractCS(), ulcp.Options{})
}

// analyze runs the full pipeline on an app.
func analyze(app *workload.App, wcfg workload.Config) (*core.Analysis, error) {
	res, err := pipeline.Run(pipeline.Request{
		App: app.Name, Threads: wcfg.Threads, Input: wcfg.Input, Scale: wcfg.Scale, Seed: wcfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return res.Analysis, nil
}

// Table1 reproduces Table 1: the ULCP breakdown of all sixteen
// applications at two threads.
func Table1(cfg Config) *report.Table {
	cfg = cfg.withDefaults()
	t := report.NewTable("Table 1: Breakdown of ULCPs (2 threads)",
		"application", "LOC", "size", "#locks", "NL", "RR", "DW", "benign", "TLCP")
	for _, app := range workload.All() {
		rec, rep := identify(app, workload.Config{Threads: 2, Scale: cfg.Scale, Seed: cfg.Seed})
		t.AddRow(app.Name, app.LOC, app.BinSize,
			fmt.Sprint(rec.Trace.DynamicLocks()),
			fmt.Sprint(rep.Counts[ulcp.NullLock]),
			fmt.Sprint(rep.Counts[ulcp.ReadRead]),
			fmt.Sprint(rep.Counts[ulcp.DisjointWrite]),
			fmt.Sprint(rep.Counts[ulcp.Benign]),
			fmt.Sprint(rep.Counts[ulcp.TLCP]))
	}
	if cfg.Scale != 1.0 {
		t.AddNote("workload scale %.2f of paper scale", cfg.Scale)
	}
	return t
}

// Figure2 reproduces Fig. 2: ULCP count growth with thread count for
// openldap, pbzip2 and bodytrack.
func Figure2(cfg Config) *report.Figure {
	cfg = cfg.withDefaults()
	f := report.NewFigure("Figure 2: number of ULCPs vs. threads", "#ULCPs")
	// The sweep reuses Table 1 scale divided by 4 to keep the 32-thread
	// runs tractable; growth shape is scale-invariant.
	scale := cfg.Scale * 0.25
	for _, name := range []string{"openldap", "pbzip2", "bodytrack"} {
		app, _ := workload.Get(name)
		s := f.Add(name)
		for _, th := range []int{2, 4, 8, 16, 32} {
			_, rep := identify(app, workload.Config{Threads: th, Scale: scale, Seed: cfg.Seed})
			s.AddPoint(fmt.Sprint(th), float64(rep.NumULCPs()), 0)
		}
	}
	f.AddNote("run at %.2fx of Table 1 scale", scale)
	return f
}

// Figure13 reproduces Fig. 13: replayed execution time (mean ± σ over N
// replays) for MEM-S, SYNC-S, ELSC-S and ORIG-S on the PARSEC benchmarks.
func Figure13(cfg Config) *report.Figure {
	cfg = cfg.withDefaults()
	f := report.NewFigure("Figure 13: performance fidelity of replay schemes", "replayed time (ticks)")
	schemes := []replay.Scheduler{replay.MemS, replay.SyncS, replay.ELSCS, replay.OrigS}
	series := make(map[replay.Scheduler]*report.Series, len(schemes))
	for _, s := range schemes {
		series[s] = f.Add(s.String())
	}
	for _, app := range workload.Parsec() {
		p := app.Build(workload.Config{Threads: 2, Scale: cfg.Scale, Seed: cfg.Seed})
		rec := sim.Run(p, sim.Config{Seed: cfg.Seed})
		for _, sch := range schemes {
			var totals []vtime.Duration
			for r := 0; r < cfg.Replays; r++ {
				res, err := replay.Run(rec.Trace, replay.Options{Sched: sch, Seed: int64(r + 1)})
				if err != nil {
					continue
				}
				totals = append(totals, res.Total)
			}
			sample := stats.FromDurations(totals)
			series[sch].AddPoint(app.Name, sample.Mean(), sample.Std())
		}
	}
	f.AddNote("%d replays per scheme; error bars are ±σ", cfg.Replays)
	return f
}

// Figure14 reproduces Fig. 14: normalized execution time split into ULCP
// performance degradation and CPU-time wasting per thread for all apps.
func Figure14(cfg Config) *report.Figure {
	cfg = cfg.withDefaults()
	f := report.NewFigure("Figure 14: normalized ULCP performance impact (2 threads)", "fraction of execution time")
	deg := f.Add("performance degradation")
	waste := f.Add("CPU time wasting per thread")
	var sumDeg, sumWaste float64
	n := 0
	for _, app := range workload.All() {
		a, err := analyze(app, workload.Config{Threads: 2, Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			deg.AddPoint(app.Name, 0, 0)
			waste.AddPoint(app.Name, 0, 0)
			continue
		}
		d := a.Debug.NormalizedDegradation()
		w := a.Debug.CPUWastePerThread(2)
		deg.AddPoint(app.Name, d, 0)
		waste.AddPoint(app.Name, w, 0)
		sumDeg += d
		sumWaste += w
		n++
	}
	if n > 0 {
		deg.AddPoint("average", sumDeg/float64(n), 0)
		waste.AddPoint("average", sumWaste/float64(n), 0)
	}
	return f
}

// table2Apps is the application subset Table 2 reports.
var table2Apps = []string{
	"openldap", "mysql", "pbzip2", "transmissionBT", "handbrake",
	"blackscholes", "bodytrack", "facesim", "fluidanimate", "swaptions",
}

// Table2 reproduces Table 2: grouped ULCP code regions and the relative
// optimization opportunity of the most beneficial one (ULCP1.P).
func Table2(cfg Config) *report.Table {
	cfg = cfg.withDefaults()
	t := report.NewTable("Table 2: grouped ULCP code regions and top opportunity",
		"application", "#grouped ULCPs", "ULCP1.P")
	for _, name := range table2Apps {
		app, _ := workload.Get(name)
		a, err := analyze(app, workload.Config{Threads: 2, Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			t.AddRow(name, "error", err.Error())
			continue
		}
		groups := a.Debug.Groups
		if len(groups) == 0 {
			t.AddRow(name, "0", "0")
			continue
		}
		t.AddRow(name, fmt.Sprint(len(groups)), fmt.Sprintf("%.1f%%", groups[0].P*100))
	}
	return t
}

// Table3 reproduces Table 3: lockset maintenance overhead with and without
// the dynamic locking strategy, on the PARSEC benchmarks.
func Table3(cfg Config) *report.Table {
	cfg = cfg.withDefaults()
	t := report.NewTable("Table 3: lockset runtime overhead w/o and w/ DLS",
		"application", "w/o DLS", "w/ DLS")
	for _, app := range workload.Parsec() {
		a, err := analyze(app, workload.Config{Threads: 2, Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			t.AddRow(app.Name, "error", err.Error())
			continue
		}
		base := a.FreeReplay.Total // lockset cost model off
		over := func(dls bool) string {
			if base == 0 {
				return "0" // no locks at all (blackscholes)
			}
			res, err := replay.Run(a.Recorded.Trace, replay.Options{
				Sched: replay.ELSCS, DLS: dls, LocksetCost: cfg.LocksetCost,
				Plan: a.Transformed.Plan,
			})
			if err != nil {
				return "error"
			}
			return fmt.Sprintf("%.1f%%", 100*float64(res.Total-base)/float64(base))
		}
		t.AddRow(app.Name, over(false), over(true))
	}
	t.AddNote("lockset maintenance cost %d ticks/member (lock acquisition costs 40)", cfg.LocksetCost)
	return t
}

// TableLE is an ablation beyond the paper's tables, quantifying its
// Sec. 2.2 argument against the dynamic alternative: speculative lock
// elision removes ULCP serialization at runtime, but pays aborts and
// wasted work where contention is real — and produces no code-region
// diagnosis. For each application the table reports the locked baseline,
// the PerfPlay ULCP-free replay, the elided run, and LE's abort economy.
func TableLE(cfg Config) *report.Table {
	cfg = cfg.withDefaults()
	t := report.NewTable("Table LE (ablation): PerfPlay transformation vs. speculative lock elision",
		"application", "locked", "ULCP-free", "elided", "LE aborts", "LE abort rate", "LE wasted work")
	for _, name := range []string{"openldap", "mysql", "handbrake", "bodytrack", "canneal", "dedup", "facesim", "fluidanimate", "vips", "x264"} {
		app, _ := workload.Get(name)
		a, err := analyze(app, workload.Config{Threads: 2, Scale: cfg.Scale, Seed: cfg.Seed})
		if err != nil {
			t.AddRow(name, "error", err.Error())
			continue
		}
		le, err := elision.Run(a.Recorded.Trace, elision.Options{Seed: cfg.Seed})
		if err != nil {
			t.AddRow(name, "error", err.Error())
			continue
		}
		t.AddRow(name,
			fmt.Sprint(a.Debug.Tut),
			fmt.Sprint(a.Debug.Tuft),
			fmt.Sprint(le.Total),
			fmt.Sprint(le.Aborts+le.FalseAborts),
			fmt.Sprintf("%.1f%%", le.AbortRate()*100),
			fmt.Sprint(le.WastedWork))
	}
	t.AddNote("LE: 2 retries, 150-tick abort penalty, 2%% false aborts")
	return t
}

// TableStatic is the Sec. 7.2 ablation: what a static, region-level
// analyzer would report versus PerfPlay's dynamic identification — the
// "abundant false ULCPs" and the ULCP/TLCP unrolling obstacle made
// measurable.
func TableStatic(cfg Config) *report.Table {
	cfg = cfg.withDefaults()
	t := report.NewTable("Table Static (ablation): region-level static analysis vs. dynamic identification",
		"application", "static ULCP pairs", "confirmed", "false positives", "missed dynamic ULCP regions")
	for _, name := range []string{"openldap", "mysql", "pbzip2", "handbrake", "dedup", "facesim", "fluidanimate", "x264"} {
		app, _ := workload.Get(name)
		p := app.Build(workload.Config{Threads: 2, Scale: cfg.Scale, Seed: cfg.Seed})
		rec := sim.Run(p, sim.Config{Seed: cfg.Seed})
		static := staticcheck.Analyze(rec.Trace)
		css := rec.Trace.ExtractCS()
		static.CompareWithDynamic(ulcp.Identify(rec.Trace, css, ulcp.Options{}), css)
		claims := 0
		for _, f := range static.Findings {
			if f.Cat.IsULCP() {
				claims++
			}
		}
		t.AddRow(name, fmt.Sprint(claims), fmt.Sprint(static.TruePositive),
			fmt.Sprint(static.FalsePositive), fmt.Sprint(static.Missed))
	}
	t.AddNote("static view: per code region, flow-insensitive (merged access sets)")
	return t
}

// sensitivityApps are the Fig. 15/16 subjects: few, medium and many ULCPs.
var sensitivityApps = []string{"canneal", "bodytrack", "fluidanimate"}

// Figure15 reproduces Fig. 15: ULCP impact vs. thread count — (a)
// performance loss, (b) CPU wasting per thread.
func Figure15(cfg Config) []*report.Figure {
	cfg = cfg.withDefaults()
	fa := report.NewFigure("Figure 15a: performance loss vs. threads", "normalized execution time")
	fb := report.NewFigure("Figure 15b: CPU wasting per thread vs. threads", "normalized CPU time per thread")
	for _, name := range sensitivityApps {
		app, _ := workload.Get(name)
		sa, sb := fa.Add(name), fb.Add(name)
		for _, th := range []int{2, 4, 6, 8} {
			a, err := analyze(app, workload.Config{Threads: th, Scale: cfg.Scale, Seed: cfg.Seed})
			if err != nil {
				continue
			}
			sa.AddPoint(fmt.Sprint(th), a.Debug.NormalizedDegradation(), 0)
			sb.AddPoint(fmt.Sprint(th), a.Debug.CPUWastePerThread(th), 0)
		}
	}
	return []*report.Figure{fa, fb}
}

// Figure16 reproduces Fig. 16: ULCP impact vs. input size.
func Figure16(cfg Config) []*report.Figure {
	cfg = cfg.withDefaults()
	fa := report.NewFigure("Figure 16a: performance loss vs. input size", "normalized execution time")
	fb := report.NewFigure("Figure 16b: CPU wasting per thread vs. input size", "normalized CPU time per thread")
	inputs := []workload.InputSize{workload.SimSmall, workload.SimMedium, workload.SimLarge}
	for _, name := range sensitivityApps {
		app, _ := workload.Get(name)
		sa, sb := fa.Add(name), fb.Add(name)
		for _, in := range inputs {
			a, err := analyze(app, workload.Config{Threads: 2, Input: in, Scale: cfg.Scale, Seed: cfg.Seed})
			if err != nil {
				continue
			}
			sa.AddPoint(in.String(), a.Debug.NormalizedDegradation(), 0)
			sb.AddPoint(in.String(), a.Debug.CPUWastePerThread(2), 0)
		}
	}
	return []*report.Figure{fa, fb}
}

// Figure19 reproduces Fig. 19: the two verified case-study bugs, measured
// by running the buggy and the fixed implementation side by side —
// #BUG 1 (openldap spin wait vs. barrier) and #BUG 2 (pbzip2 polling join
// vs. signal/wait).
func Figure19(cfg Config) []*report.Figure {
	cfg = cfg.withDefaults()
	fa := report.NewFigure("Figure 19a: case studies vs. threads", "normalized time")
	fb := report.NewFigure("Figure 19b: case studies vs. input size", "normalized time")

	bug1 := func(wcfg workload.Config) (float64, float64) {
		buggy := sim.Run(workload.MustGet("openldap").Build(wcfg), sim.Config{Seed: wcfg.Seed})
		fixed := sim.Run(workload.BuildOpenldapFixed(wcfg), sim.Config{Seed: wcfg.Seed})
		// #BUG 1 wastes CPU in the release-wait spin loop (poll computes
		// plus spin-lock burn); the barrier fix idles instead.
		waste := float64(buggy.CPUTotal()-fixed.CPUTotal()) / float64(wcfg.Threads) / float64(buggy.Total)
		loss := float64(buggy.Total-fixed.Total) / float64(buggy.Total)
		if waste < 0 {
			waste = 0
		}
		if loss < 0 {
			loss = 0
		}
		return loss, waste
	}
	bug2 := func(wcfg workload.Config) (float64, float64) {
		buggy := sim.Run(workload.MustGet("pbzip2").Build(wcfg), sim.Config{Seed: wcfg.Seed})
		fixed := sim.Run(workload.BuildPbzip2Fixed(wcfg), sim.Config{Seed: wcfg.Seed})
		// #BUG 2's cost is system throughput: the polling join burns CPU
		// and serializes the consumers' checks, so the loss is measured
		// in total CPU time per unit of work.
		loss := float64(buggy.CPUTotal()-fixed.CPUTotal()) / float64(buggy.CPUTotal())
		waste := float64(buggy.CPUTotal()-fixed.CPUTotal()) / float64(wcfg.Threads) / float64(buggy.Total)
		if waste < 0 {
			waste = 0
		}
		if loss < 0 {
			loss = 0
		}
		return loss, waste
	}

	s1a, s2a := fa.Add("BUG1 (waste/thread)"), fa.Add("BUG2 (perf loss)")
	for _, th := range []int{2, 4, 6, 8} {
		wcfg := workload.Config{Threads: th, Scale: cfg.Scale, Seed: cfg.Seed}
		_, w1 := bug1(wcfg)
		l2, _ := bug2(wcfg)
		s1a.AddPoint(fmt.Sprint(th), w1, 0)
		s2a.AddPoint(fmt.Sprint(th), l2, 0)
	}

	s1b, s2b := fb.Add("BUG1 (waste/thread)"), fb.Add("BUG2 (perf loss)")
	labels := []string{"500/32M", "1000/64M", "1500/128M", "2000/256M"}
	scales := []float64{0.25, 0.5, 0.75, 1.0}
	for i, sc := range scales {
		wcfg := workload.Config{Threads: 2, Scale: cfg.Scale * sc, Seed: cfg.Seed}
		_, w1 := bug1(wcfg)
		l2, _ := bug2(wcfg)
		s1b.AddPoint(labels[i], w1, 0)
		s2b.AddPoint(labels[i], l2, 0)
	}
	return []*report.Figure{fa, fb}
}
