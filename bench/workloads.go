package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"perfplay/internal/corpus"
	"perfplay/internal/sim"
	"perfplay/internal/workload"
)

// traceSpec names one recording: the programs under test never see it,
// only the bytes it produces.
type traceSpec struct {
	App     string  `json:"app"`
	Threads int     `json:"threads"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
}

// input is one generated trace in the v3 binary encoding.
type input struct {
	spec   traceSpec
	data   []byte
	digest string
	events int
}

func generate(spec traceSpec) (*input, error) {
	app, ok := workload.Get(spec.App)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.App)
	}
	prog := app.Build(workload.Config{Threads: spec.Threads, Scale: spec.Scale, Seed: spec.Seed})
	res := sim.Run(prog, sim.Config{Seed: spec.Seed})
	var buf bytes.Buffer
	if err := res.Trace.WriteBinary(&buf); err != nil {
		return nil, fmt.Errorf("encode %s trace: %w", spec.App, err)
	}
	return &input{spec: spec, data: buf.Bytes(), digest: corpus.Digest(buf.Bytes()), events: len(res.Trace.Events)}, nil
}

// generateAll records the specs on every core: recordings are
// independent and each is a pure function of its spec, so the order they
// finish in changes nothing.
func generateAll(specs []traceSpec) ([]*input, error) {
	ins := make([]*input, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				ins[i], errs[i] = generate(specs[i])
			}
		}()
	}
	wg.Wait()
	return ins, errors.Join(errs...)
}

// opSpec is one operation: analyze trace number Trace with these report
// flags, uploading the bytes first when Upload is set.
type opSpec struct {
	Trace   int
	Upload  bool
	Schemes bool
	Races   bool
}

// key identifies the report an op must return.
func (o opSpec) key() string {
	return fmt.Sprintf("t%d/schemes=%t/races=%t", o.Trace, o.Schemes, o.Races)
}

// plan is a workload's inputs for one seed: the traces to generate, the
// ops the daemon must have served before timing starts (warm), and the
// timed op sequence (op(i) reports false once the sequence is spent).
type plan struct {
	traces []traceSpec
	warm   []opSpec
	op     func(i int) (opSpec, bool)
	// span is how many ops from the start of the sequence visit every key
	// the plan can serve.
	span int
	// hitShare, when set, is the share of timed ops the access pattern
	// makes result-cache hits; the run fails if the daemon disagrees.
	hitShare float64
}

// workloadDef is one named workload; BENCHMARK.json records why each
// exists.
type workloadDef struct {
	name   string
	daemon bool
	// setups is how many times set-up is repeated in one run; setup_s is
	// the median. The last set-up is the one the timed phase uses. The
	// ingest workload sets up once: its set-up is 800 recordings, long
	// enough to repeat within a few percent by itself.
	setups int
	plan   func(seed int64, smoke bool) plan
}

// daemonApps is the mix behind both daemon workloads: pair-heavy (mysql,
// openldap) and event-heavy (pbzip2, dedup, ferret) recordings.
// eventsPerScale is about how many events the app records per unit of
// scale at 4 threads; the plans use it to give every app's traces about
// the same length, so the latency percentiles compare what an event
// costs to analyze and do not just sort the ops by trace length.
var daemonApps = []struct {
	name           string
	eventsPerScale float64
}{{"mysql", 27600}, {"openldap", 25400}, {"pbzip2", 10600}, {"dedup", 233000}, {"ferret", 88000}}

// daemonTrace is a 4-thread recording of daemonApps[a] of about the
// given length.
func daemonTrace(a int, events float64, seed int64) traceSpec {
	app := daemonApps[a]
	return traceSpec{App: app.name, Threads: 4, Scale: events / app.eventsPerScale, Seed: seed}
}

var workloads = []workloadDef{
	{name: "cli-ulcp", setups: 7, plan: func(seed int64, smoke bool) plan { return cliPlan("mysql", pick(smoke, 0.1, 0.5), seed) }},
	{name: "cli-scan", setups: 7, plan: func(seed int64, smoke bool) plan { return cliPlan("fluidanimate", pick(smoke, 0.01, 0.04), seed) }},
	{name: "daemon-ingest", daemon: true, setups: 1, plan: ingestPlan},
	{name: "daemon-reuse", daemon: true, setups: 3, plan: reusePlan},
}

func pick[T any](smoke bool, small, full T) T {
	if smoke {
		return small
	}
	return full
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// rngFor gives each workload its own stream, so adding a draw to one
// workload's plan cannot change another's inputs.
func rngFor(seed int64, stream string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// cliTraces is how many recordings of the app a CLI workload stores and
// analyzes in turn. They have the same length and the same number of
// pairs, but a Go process's peak memory depends on where its collector's
// cycles happen to fall, which changes with the bytes: one recording's
// peak differs from the next one's by up to a quarter. Over several the
// mean says what the code needs, not what one input happened to hit.
const cliTraces = 4

// cliPlan: a few stored traces, analyzed again and again by fresh CLI
// processes — the paper's user re-running the tool on recordings.
func cliPlan(app string, scale float64, seed int64) plan {
	rng := rngFor(seed, "cli-"+app)
	p := plan{span: cliTraces, op: func(i int) (opSpec, bool) { return opSpec{Trace: i % cliTraces}, true }}
	for i := 0; i < cliTraces; i++ {
		p.traces = append(p.traces, traceSpec{App: app, Threads: 4, Scale: scale, Seed: rng.Int63n(1 << 40)})
	}
	return p
}

// ingestPlan: every op brings a trace the daemon has never seen. The
// apps alternate in a fixed round (seed-shuffled within each round), so
// every seed sends the same share of each app and the latency
// percentiles do not depend on the luck of the draw.
func ingestPlan(seed int64, smoke bool) plan {
	rng := rngFor(seed, "daemon-ingest")
	rounds := pick(smoke, 2, 160)
	var p plan
	for r := 0; r < rounds; r++ {
		for _, a := range rng.Perm(len(daemonApps)) {
			p.traces = append(p.traces, daemonTrace(a, pick(smoke, 2000.0, 10000.0), rng.Int63n(1<<40)))
		}
	}
	n := len(p.traces)
	p.op, p.span = func(i int) (opSpec, bool) { return opSpec{Trace: i, Upload: true}, i < n }, n
	return p
}

// reusePlan: 160 result keys (40 stored traces × 4 flag combinations)
// against the daemon's 128-entry result cache, visited in a fixed
// pattern: every third op takes the next of the 32 keys of the 8 hot
// traces, the other two take the next of the 128 keys of the 32 cold
// traces, each set in a seed-shuffled cycle. Fewer than 128 other keys
// are served between two visits to a hot key, so the LRU still holds it
// (a result-cache hit); more than 128 are served between two visits to a
// cold key, so it is gone (a re-run against the cached verdict table).
// The hit share is therefore 1/3 whatever the seed or the speed of the
// box, and both op_p50_ms and op_p90_ms lie among the re-runs — the hit
// path is two journal fsyncs plus a millisecond, and fsync latency on the
// reference box drifts fivefold, so no percentile may rest on it.
func reusePlan(seed int64, smoke bool) plan {
	rng := rngFor(seed, "daemon-reuse")
	ntraces, nhot := pick(smoke, 5, 40), pick(smoke, 1, 8)
	p := plan{hitShare: pick(smoke, 0, 1.0/3)} // the smoke plan's 20 keys all fit the cache
	for i := 0; i < ntraces; i++ {
		p.traces = append(p.traces, daemonTrace(i%len(daemonApps), pick(smoke, 1000.0, 5000.0), rng.Int63n(1<<40)))
	}
	// One key per trace, of seed-drawn flags, uploads the trace in the
	// warm-up, which also builds its verdict table.
	var hot, cold, hotRest, coldRest []opSpec
	for t := range p.traces {
		first := rng.Intn(4)
		for f := 0; f < 4; f++ {
			k := opSpec{Trace: t, Schemes: f&1 != 0, Races: f&2 != 0}
			switch {
			case t < nhot && f == first:
				hot = append(hot, k)
			case t < nhot:
				hotRest = append(hotRest, k)
			case f == first:
				cold = append(cold, k)
			default:
				coldRest = append(coldRest, k)
			}
		}
	}
	// Warm-up: the uploads, cold traces before hot ones, then the other
	// hot keys. That leaves every hot key cached, and the cold upload keys as
	// the oldest entries: the sweep visits them last, by when the keys
	// before them have pushed them out, so the timed phase is in the
	// pattern's steady state from its first op. (A cold key never served
	// takes the same path as one the cache has dropped.)
	for _, k := range append(append(append([]opSpec(nil), cold...), hot...), hotRest...) {
		k.Upload = len(p.warm) < ntraces
		p.warm = append(p.warm, k)
	}
	hot = append(hot, hotRest...)
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	rng.Shuffle(len(coldRest), func(i, j int) { coldRest[i], coldRest[j] = coldRest[j], coldRest[i] })
	cold = append(coldRest, cold...)
	p.span = 3 * max(len(hot), len(cold)/2)
	p.op = func(i int) (opSpec, bool) {
		if i%3 == 0 {
			return hot[i/3%len(hot)], true
		}
		return cold[(i-i/3-1)%len(cold)], true
	}
	return p
}
