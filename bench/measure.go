package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"perfplay/internal/stats"
)

// runUntraced is one measured run: set-up (repeated, median reported),
// the timed phase, then verification of every report served.
func (e *env) runUntraced(sp *spec, w workloadDef, seed int64, seconds float64, pins map[string]pinned) (*runRecord, error) {
	p := w.plan(seed, e.smoke)
	var st *state
	defer func() { st.teardown() }()
	var setups []float64
	var setupSpeed speed
	for i := 0; i < w.setups; i++ {
		st.teardown()
		setupSpeed.sample(3)
		t := time.Now()
		var err error
		if st, err = e.setup(w, p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	setupSpeed.sample(3)
	refSetups := make([]float64, len(setups))
	for i, s := range setups {
		wall, _ := setupSpeed.around(i)
		refSetups[i] = s / wall
	}

	d := time.Duration(seconds * float64(time.Second))
	var ph *phase
	if w.daemon {
		ph = e.daemonPhase(st, p.op, d, nil, 0)
	} else {
		ph = e.cliPhase(st, p.op, d)
	}
	if err := verify(w, p, st, ph, pins); err != nil {
		return nil, err
	}
	r := &runRecord{Workload: w.name, Seed: seed, Failures: ph.failures}
	r.Attempted, r.Failed = ph.attempted, ph.failed
	n := len(ph.raw.latMS)
	if n == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", ph.failures)
	}
	if w.daemon {
		checkHitShares(w, p, ph, -1, r)
	}
	// Every time is reported at reference speed (see calib.go); the values
	// as measured and the box's speed go along as extras.
	values := endToEnd(ph, ph.ref, median(refSetups))
	r.Extra = map[string]float64{}
	r.Extra["bench.speed_factor"], r.Extra["bench.cpu_speed_factor"] = ph.speed.factor()
	r.Extra["bench.setup_speed_factor"], _ = setupSpeed.factor()
	for name, v := range endToEnd(ph, ph.raw, median(setups)) {
		if v != values[name] { // memory is the same at any speed
			r.Extra["raw."+name] = v
		}
	}
	var err error
	if r.Metrics, err = declared(sp.EndToEnd, values); err != nil {
		return nil, err
	}
	r.Samples = map[string]int{"setup_s": len(setups), "events_per_s": n, "op_p50_ms": n, "op_p90_ms": n, "cpu_ms_per_kevent": n, "peak_rss_mb": n}
	r.Correct = ph.failed == 0 && len(r.Failures) == 0
	return r, nil
}

// endToEnd derives the end-to-end metrics from a phase's counts and one
// of its two sets of timings.
func endToEnd(ph *phase, t timed, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":           setupS,
		"events_per_s":      ph.events / t.wallS,
		"op_p50_ms":         percentile(t.latMS, 50),
		"op_p90_ms":         percentile(t.latMS, 90),
		"cpu_ms_per_kevent": t.cpuS * 1e3 / (ph.events / 1e3),
		"peak_rss_mb":       ph.peakRSSMB,
	}
}

// checkHitShares asserts that a workload whose access pattern fixes the
// result-cache hit share (daemon-reuse) exercises the paths it exists
// for: that share of the ops must have been answered from the result
// cache and — when the traced pass has the daemon's counters,
// tableShare >= 0 — nearly every miss must have found its verdict table
// cached.
func checkHitShares(w workloadDef, p plan, ph *phase, tableShare float64, r *runRecord) {
	if p.hitShare == 0 {
		return
	}
	const slack = 0.05 // the two callers overtake each other now and then
	if got := float64(ph.hits) / float64(len(ph.raw.latMS)); got < p.hitShare-slack || got > p.hitShare+slack {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: result-cache hit share %.3f outside %.2f ± %.2f", w.name, got, p.hitShare, slack))
	}
	if tableShare >= 0 && tableShare < 0.95 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: table-cache hit share %.3f below 0.95", w.name, tableShare))
	}
}

// runTraced is the separate traced pass: the same set-up, then (1) the
// in-process layer pass over a sample of the workload's inputs, (2) the
// CLI process probe, (3) the workload's ops through a daemon with
// client-side spans and the daemon's own spans attached. Spans stay in
// memory and are written to bench/out/spans-<workload>.json at the end.
func (e *env) runTraced(sp *spec, w workloadDef, seed int64, seconds float64) (*runRecord, error) {
	p := w.plan(seed, e.smoke)
	st, err := e.setup(w, p)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { st.teardown() }()
	rec := newRecorder()

	// (1) One input per app, in plan order; ten in-process ops for a
	// single-app (CLI) workload, two per input otherwise.
	var sample []*input
	seen := map[string]bool{}
	for _, in := range st.inputs {
		if !seen[in.spec.App] {
			seen[in.spec.App] = true
			sample = append(sample, in)
		}
	}
	reps := pick(len(sample) == 1, 10, 2)
	if e.smoke {
		reps = 2
	}
	var sp0 speed // kernel runs around the in-process passes; the daemon pass adds its own
	sp0.sample(3)
	values, err := layerPass(rec, e.tmp(), sample, reps)
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	sp0.sample(3)

	// (2) The CLI process around the pipeline.
	stored := sample // what the probe's corpus holds: as many traces as the CLI would find in the workload's
	if !w.daemon {
		stored = st.inputs
	}
	if err := e.cliProbe(rec, sample, stored, values); err != nil {
		return nil, fmt.Errorf("cli probe: %w", err)
	}

	// (3) The daemon around the pipeline. A CLI workload sends the
	// request its user would send with `perfplay -daemon`: the stored
	// trace by digest, cycling the report flags.
	next := p.op
	if !w.daemon {
		if st.d, err = startDaemon(e.perfplayd, filepath.Join(st.dir, "node"), filepath.Join(e.outDir, "perfplayd-"+w.name+".log")); err != nil {
			return nil, err
		}
		if err := st.warmUp([]opSpec{{Upload: true}}); err != nil {
			return nil, fmt.Errorf("probe daemon: %w", err)
		}
		next = func(i int) (opSpec, bool) { return opSpec{Schemes: i&1 != 0, Races: i&2 != 0}, true }
	}
	before, err := st.d.scrape()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	ph := e.daemonPhase(st, next, time.Duration(seconds/3*float64(time.Second)), rec, 10)
	loadgenCPU := selfCPU() - self0
	after, err := st.d.scrape()
	if err != nil {
		return nil, err
	}
	if len(ph.raw.latMS) == 0 {
		return nil, fmt.Errorf("no traced op succeeded: %v", ph.failures)
	}
	hitMS, err := hitProbe(st, ph)
	if err != nil {
		return nil, fmt.Errorf("hit probe: %w", err)
	}
	rss1, _ := procStatusMB(st.d.cmd.Process.Pid, "VmRSS") // 0 if the daemon is gone, and then the ops failed too
	var health struct {
		Cached int `json:"cached"`
	}
	cl := newClient(st.d.base)
	defer cl.close()
	if err := cl.do(context.Background(), "GET", "/healthz", "", nil, &health); err != nil {
		return nil, err
	}

	const stageHist = "perfplay_pipeline_stage_duration_seconds"
	for _, s := range stageNames {
		values["perfplayd.stage_ms."+s] = 1e3 * stats.Ratio(
			delta(before, after, fmt.Sprintf(`%s_sum{stage=%q}`, stageHist, s)),
			delta(before, after, fmt.Sprintf(`%s_count{stage=%q}`, stageHist, s)))
	}
	cacheReq := func(cache, outcome string) float64 {
		return delta(before, after, fmt.Sprintf(`perfplay_pipeline_cache_requests_total{cache=%q,outcome=%q}`, cache, outcome))
	}
	ops := float64(len(ph.raw.latMS))
	records := 0.0
	for series := range after {
		if strings.HasPrefix(series, "perfplay_journal_records_total") {
			records += delta(before, after, series)
		}
	}
	uploads := append(append([]float64(nil), st.warm.uploadMS...), ph.uploadMS...)
	for k, v := range map[string]float64{
		"perfplayd.startup_ms":               st.d.bootS * 1e3,
		"perfplayd.upload_ms_p50":            median(uploads),
		"perfplayd.submit_ms_p50":            median(ph.submitMS),
		"perfplayd.poll_ms_p50":              median(ph.pollMS),
		"perfplayd.op_p99_ms":                percentile(ph.raw.latMS, 99),
		"perfplayd.hit_op_ms_p50":            median(hitMS),
		"perfplayd.miss_op_ms_p50":           median(ph.missMS),
		"perfplayd.queue_wait_ms_p50":        median(ph.queueMS),
		"perfplayd.execute_ms_p50":           median(ph.executeMS),
		"perfplayd.outside_pipeline_ms_p50":  median(ph.outsideMS),
		"perfplayd.result_hit_share":         stats.Ratio(cacheReq("result", "hit"), cacheReq("result", "hit")+cacheReq("result", "miss")),
		"perfplayd.table_hit_share":          stats.Ratio(cacheReq("table", "hit"), cacheReq("table", "hit")+cacheReq("table", "miss")),
		"perfplayd.journal_records_per_op":   records / ops,
		"perfplayd.journal_bytes_per_op":     delta(before, after, "perfplay_journal_appended_bytes_total") / ops,
		"perfplayd.cpu_util":                 ph.raw.cpuS / ph.raw.wallS,
		"perfplayd.rss_mb_per_cached_result": stats.Ratio(rss1-st.d.bootRSSMB, float64(health.Cached)),
		"bench.loadgen_cpu_util":             loadgenCPU / ph.raw.wallS,
	} {
		values[k] = v
	}

	r := &runRecord{Workload: w.name, Seed: seed, Traced: true, Failures: ph.failures}
	r.Attempted, r.Failed = ph.attempted, ph.failed
	// One factor for the whole traced run: the kernel timings taken
	// around the layer pass and in the daemon pass.
	sp0.ms = append(sp0.ms, ph.speed.ms...)
	wallFactor, _ := sp0.factor() // the layer metrics are spans on the wall clock
	r.Extra = atReferenceSpeed(sp.PerLayer, values, wallFactor)
	if w.daemon {
		checkHitShares(w, p, ph, values["perfplayd.table_hit_share"], r)
		r.tracedEventsPerS = ph.events / ph.ref.wallS
	} else {
		r.tracedEventsPerS = values["perfplay.probe_events_per_s"]
	}
	if r.Metrics, err = declared(sp.PerLayer, values); err != nil {
		return nil, err
	}
	r.Samples = map[string]int{
		"perfplayd.upload_ms_p50": len(uploads), "perfplayd.submit_ms_p50": len(ph.submitMS), "perfplayd.poll_ms_p50": len(ph.pollMS),
		"perfplayd.op_p99_ms": len(ph.raw.latMS), "perfplayd.hit_op_ms_p50": len(hitMS), "perfplayd.miss_op_ms_p50": len(ph.missMS), "perfplayd.queue_wait_ms_p50": len(ph.queueMS), "perfplayd.execute_ms_p50": len(ph.executeMS),
		"perfplayd.outside_pipeline_ms_p50": len(ph.outsideMS), "perfplay.startup_ms": startupReps, "perfplay.outside_pipeline_ms": cliProbeReps * len(sample),
	}
	r.Correct = ph.failed == 0 && len(r.Failures) == 0
	if err := writeSpans(filepath.Join(e.outDir, "spans-"+w.name+".json"), rec.snapshot()); err != nil {
		return nil, err
	}
	return r, nil
}

// hitProbeOps is how many of the ops a traced pass served last are
// requested once more: far fewer than the result cache holds, so the
// daemon still has every one of them.
const hitProbeOps = 32

// hitProbe measures the result-cache hit path by itself — HTTP, the
// journal's admit and settle records, re-rendering the cached result —
// on whatever workload: it asks again, one request at a time, for the
// reports the pass served last.
func hitProbe(st *state, ph *phase) ([]float64, error) {
	cl := newClient(st.d.base)
	defer cl.close()
	var hitMS []float64
	for _, o := range ph.order[max(0, len(ph.order)-hitProbeOps):] {
		o.Upload = false
		t := time.Now()
		res, err := cl.runOp(nil, 0, 0, st.inputs[o.Trace], o)
		lat := time.Since(t)
		if err != nil {
			return nil, err
		}
		if !res.job.CacheHit {
			return nil, fmt.Errorf("%s: served moments ago, yet not a result-cache hit", o.key())
		}
		if !ph.served(o, []byte(res.job.Report)) {
			return nil, fmt.Errorf("%s: the cached report differs from the one served before", o.key())
		}
		hitMS = append(hitMS, ms(lat))
	}
	return hitMS, nil
}

const (
	startupReps  = 10
	cliProbeReps = 3
)

// cliProbe measures the CLI process as a layer: start-up alone
// (`perfplay -list`), and what a CLI op spends outside decode and
// pipeline.Run — process start, flag parsing, corpus open and index
// rewrite, printing — as the op's wall time minus the in-process time
// for the same bytes.
func (e *env) cliProbe(rec *recorder, sample, stored []*input, values map[string]float64) error {
	var startup []float64
	for i := 0; i < startupReps; i++ {
		sp := rec.begin(0, 0, "perfplay.startup")
		t := time.Now()
		err := exec.Command(e.perfplay, "-list").Run()
		startup = append(startup, ms(time.Since(t)))
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("perfplay -list: %w", err)
		}
	}
	values["perfplay.startup_ms"] = median(startup)

	// The probe needs the sample in a corpus directory; a daemon
	// workload has none on disk that the harness may read, so seed one.
	// (The sample leads the stored traces, so its indices hold.)
	probe := &state{inputs: stored}
	var err error
	if probe.dir, err = e.seedCorpus(stored); err != nil {
		return err
	}
	defer probe.teardown()
	ph := e.cliPhase(probe, func(i int) (opSpec, bool) {
		return opSpec{Trace: i % len(sample)}, i < cliProbeReps*len(sample)
	}, time.Hour)
	if ph.failed > 0 {
		return fmt.Errorf("%d of %d probe ops failed: %v", ph.failed, ph.attempted, ph.failures)
	}
	// Mean over the sample of (median op wall − in-process decode+run).
	inproc := (values["trace.decode_binary_ns_per_event"] + values["pipeline.run_ns_per_event"]) * values["trace.events"] / 1e6 / float64(len(sample))
	values["perfplay.outside_pipeline_ms"] = stats.Sample(ph.raw.latMS).Mean() - inproc
	values["perfplay.probe_events_per_s"] = ph.events / ph.ref.wallS // undeclared: feeds bench.trace_overhead_share
	return nil
}

// selfCPU is the harness's own user+system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// updateGolden recomputes the pinned reports for the golden seed from
// the in-process references alone: no product binary is involved, so the
// golden file says what the report should be, not what was served.
func updateGolden(e *env) int {
	g := golden{}
	for _, w := range workloads {
		p := w.plan(goldenSeed, false)
		ins, err := generateAll(p.traces)
		if err != nil {
			return fatal(err)
		}
		keys := planKeys(p)
		g[w.name] = map[string]pinned{}
		for _, k := range verifiedKeys(p, keys) {
			o := keys[k]
			if g[w.name][k], err = reference(ins[o.Trace], o, !w.daemon); err != nil {
				return fatal(err)
			}
		}
		logf("golden: %s: %d reports pinned", w.name, len(g[w.name]))
	}
	if err := g.save(e.root); err != nil {
		return fatal(err)
	}
	return 0
}
