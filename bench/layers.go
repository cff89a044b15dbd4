package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"perfplay/internal/core"
	"perfplay/internal/corpus"
	"perfplay/internal/journal"
	"perfplay/internal/perfdbg"
	"perfplay/internal/pipeline"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/stats"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// cost is what one call into a layer cost: wall nanoseconds from the
// span around it, and the heap objects and bytes allocated during it.
type cost struct{ ns, allocs, bytes float64 }

// counts are the exact, seed-determined sizes that per-event and
// per-pair metrics are normalised by. They must repeat across runs and
// commits.
type counts struct {
	Events   int `json:"events"`
	CritSecs int `json:"critsecs"`
	Pairs    int `json:"pairs"`
	ULCPs    int `json:"ulcps"`
	Replays  int `json:"reversed_replays"`
	Groups   int `json:"groups"`
}

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.CritSecs += o.CritSecs
	c.Pairs += o.Pairs
	c.ULCPs += o.ULCPs
	c.Replays += o.Replays
	c.Groups += o.Groups
}

func countsOf(tr *trace.Trace, a *core.Analysis) counts {
	return counts{
		Events: len(tr.Events), CritSecs: len(a.CSs), Pairs: len(a.Report.Pairs),
		ULCPs: a.Report.NumULCPs(), Replays: a.Report.ReversedReplays, Groups: len(a.Debug.Groups),
	}
}

// prober times calls into the layers. Each call is one span in rec; the
// memory counters are read outside the span so reading them is not
// charged to the layer.
type prober struct {
	rec  *recorder
	op   int
	root int
	obs  map[string][]cost
}

func (p *prober) call(name string, fn func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := p.rec.begin(p.op, p.root, name)
	err := fn()
	p.rec.end(sp)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	s := p.rec.spans[sp-1] // only this goroutine appends during a layer pass
	p.obs[name] = append(p.obs[name], cost{float64(s.dur()), float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)})
	return nil
}

// layeredOp is one in-process op: it calls the exported functions of
// each layer in the pipeline's stage order on the stored bytes, and
// returns the report it renders. That report must equal pipeline.Run's,
// which is what shows the harness mirrors the real stage order.
func (p *prober) layeredOp(store *corpus.Store, digest string) (string, counts, error) {
	p.root = p.rec.begin(p.op, 0, "op")
	defer func() { p.rec.end(p.root) }()
	var (
		data       []byte
		tr         *trace.Trace
		orig, free *replay.Result
		css        []*trace.CritSec
		rep        *ulcp.Report
		tf         *transform.Result
		dbg        *perfdbg.Debug
		report     string
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"corpus.get", func() (err error) { data, _, err = store.Get(digest); return }},
		{"trace.decode", func() (err error) { tr, err = trace.ReadAny(bytes.NewReader(data)); return }},
		{"trace.validate_warm", func() error {
			if err := tr.Validate(); err != nil {
				return err
			}
			tr.Warm()
			return nil
		}},
		{"replay.elsc", func() (err error) { orig, err = replay.Run(tr, replay.Options{Sched: replay.ELSCS}); return }},
		{"trace.extractcs", func() error { css = tr.ExtractCS(); return nil }},
		{"ulcp.build_table", func() error { _, rep = ulcp.BuildVerdictTable(tr, css, ulcp.Options{}); return nil }},
		{"transform.apply", func() (err error) {
			if tf, err = transform.Apply(tr, css, rep); err == nil {
				tf.Trace.Warm()
			}
			return
		}},
		{"replay.free_trace", func() (err error) { free, err = replay.Run(tf.Trace, replay.Options{Sched: replay.ELSCS}); return }},
		{"perfdbg.evaluate", func() error { dbg = perfdbg.Evaluate(tr, css, rep, orig, free, tr.NumThreads); return nil }},
		{"report.render", func() error {
			a := &core.Analysis{App: tr.App, CSs: css, Report: rep, Transformed: tf, OrigReplay: orig, FreeReplay: free, Debug: dbg}
			report = a.Summary(5)
			return nil
		}},
	}
	for _, s := range steps {
		if err := p.call(s.name, s.fn); err != nil {
			return "", counts{}, err
		}
	}
	a := &core.Analysis{CSs: css, Report: rep, Debug: dbg}
	return report, countsOf(tr, a), nil
}

// directLayers are the spans of layeredOp that pipeline.Run also
// executes; their sum is compared with the pipeline.run span.
var directLayers = []string{
	"trace.validate_warm", "replay.elsc", "trace.extractcs", "ulcp.build_table",
	"transform.apply", "replay.free_trace", "perfdbg.evaluate", "report.render",
}

// layerPass measures every package-level layer on the given inputs and
// returns the per-layer metrics, the exact counts among them. reps in-process
// ops are run per input; a metric uses the median op of each input,
// summed over the inputs, divided by the summed count.
func layerPass(rec *recorder, tmp string, ins []*input, reps int) (map[string]float64, error) {
	dir, err := os.MkdirTemp(tmp, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := corpus.Open(filepath.Join(dir, "corpus"), corpus.Options{})
	if err != nil {
		return nil, err
	}
	total := map[string]cost{} // per name: sum over inputs of the median op
	var n counts
	var mb float64
	opID := 0
	for _, in := range ins {
		if _, _, err := store.Put(in.data, false); err != nil {
			return nil, err
		}
		mb += float64(len(in.data)) / (1 << 20)
		p := &prober{rec: rec, obs: map[string][]cost{}}
		var c counts
		for r := 0; r < reps; r++ {
			opID++
			p.op = opID
			report, got, err := p.layeredOp(store, in.digest)
			if err != nil {
				return nil, err
			}
			// The same bytes through the real orchestrator, on a freshly
			// decoded trace so it pays Validate and Warm like the op did:
			// the comparator for the layer spans and the check on the
			// mirror above.
			p.root = 0
			fresh, err := trace.ReadAny(bytes.NewReader(in.data))
			if err != nil {
				return nil, err
			}
			var res *pipeline.Result
			if err := p.call("pipeline.run", func() (err error) {
				res, err = pipeline.Run(pipeline.Request{Trace: fresh})
				return err
			}); err != nil {
				return nil, err
			}
			for _, t := range res.Timings {
				p.obs["stage."+t.Stage] = append(p.obs["stage."+t.Stage], cost{ns: float64(t.Wall.Nanoseconds())})
			}
			if res.Report != report {
				return nil, fmt.Errorf("%s: layered op report differs from pipeline.Run report", in.spec.App)
			}
			c = got
		}
		if err := p.extras(dir, store, in); err != nil {
			return nil, err
		}
		n.add(c)
		for name, cs := range p.obs {
			t := total[name]
			t.ns += median(project(cs, func(c cost) float64 { return c.ns }))
			t.allocs += median(project(cs, func(c cost) float64 { return c.allocs }))
			t.bytes += median(project(cs, func(c cost) float64 { return c.bytes }))
			total[name] = t
		}
	}

	ev, cs, pairs, ul := float64(n.Events), float64(n.CritSecs), float64(n.Pairs), float64(n.ULCPs)
	m := map[string]float64{
		"trace.events": ev, "trace.critsecs": cs, "ulcp.pairs": pairs, "ulcp.ulcps": ul,
		"ulcp.reversed_replays": float64(n.Replays), "perfdbg.groups": float64(n.Groups),

		"sim.record_ns_per_event":    stats.Ratio(total["sim.record"].ns, ev),
		"sim.record_bytes_per_event": stats.Ratio(total["sim.record"].bytes, ev),

		"trace.decode_binary_ns_per_event":     stats.Ratio(total["trace.decode"].ns, ev),
		"trace.decode_binary_allocs_per_event": stats.Ratio(total["trace.decode"].allocs, ev),
		"trace.decode_binary_bytes_per_event":  stats.Ratio(total["trace.decode"].bytes, ev),
		"trace.decode_columnar_ns_per_event":   stats.Ratio(total["trace.decode_columnar"].ns, ev),
		"trace.parse_columnar_ns_per_event":    stats.Ratio(total["trace.parse_columnar"].ns, ev),
		"trace.decode_json_ns_per_event":       stats.Ratio(total["trace.decode_json"].ns, ev),
		"trace.encode_binary_ns_per_event":     stats.Ratio(total["trace.encode_binary"].ns, ev),
		"trace.encode_binary_allocs_per_event": stats.Ratio(total["trace.encode_binary"].allocs, ev),
		"trace.validate_warm_ns_per_event":     stats.Ratio(total["trace.validate_warm"].ns, ev),
		"trace.extractcs_ns_per_event":         stats.Ratio(total["trace.extractcs"].ns, ev),
		"trace.extractcs_allocs_per_cs":        stats.Ratio(total["trace.extractcs"].allocs, cs),
		"trace.extractcs_bytes_per_cs":         stats.Ratio(total["trace.extractcs"].bytes, cs),

		"replay.elsc_ns_per_event":       stats.Ratio(total["replay.elsc"].ns, ev),
		"replay.schemes4_ns_per_event":   stats.Ratio(total["replay.schemes4"].ns, ev),
		"replay.allocs_per_event":        stats.Ratio(total["replay.elsc"].allocs, ev),
		"replay.free_trace_ns_per_event": stats.Ratio(total["replay.free_trace"].ns, ev),

		"ulcp.build_table_ns_per_pair":       stats.Ratio(total["ulcp.build_table"].ns, pairs),
		"ulcp.build_table_allocs_per_pair":   stats.Ratio(total["ulcp.build_table"].allocs, pairs),
		"ulcp.shards_with_table_ns_per_pair": stats.Ratio(total["ulcp.shards_with_table"].ns, pairs),

		"transform.apply_ns_per_event":     stats.Ratio(total["transform.apply"].ns, ev),
		"transform.apply_allocs_per_event": stats.Ratio(total["transform.apply"].allocs, ev),

		"perfdbg.evaluate_ns_per_ulcp":     stats.Ratio(total["perfdbg.evaluate"].ns, ul),
		"perfdbg.evaluate_allocs_per_ulcp": stats.Ratio(total["perfdbg.evaluate"].allocs, ul),

		"pipeline.run_ns_per_event":     stats.Ratio(total["pipeline.run"].ns, ev),
		"pipeline.run_allocs_per_event": stats.Ratio(total["pipeline.run"].allocs, ev),
		"pipeline.run_bytes_per_event":  stats.Ratio(total["pipeline.run"].bytes, ev),
		"pipeline.workers4_speedup":     stats.Ratio(total["pipeline.run"].ns, total["pipeline.run_workers4"].ns),
		"pipeline.result_hit_ns":        total["pipeline.result_hit"].ns / float64(len(ins)),

		"corpus.open_ns":           total["corpus.open"].ns / float64(len(ins)),
		"corpus.put_ns_per_mb":     stats.Ratio(total["corpus.put"].ns, mb),
		"corpus.get_ns_per_mb":     stats.Ratio(total["corpus.get"].ns, mb),
		"corpus.load_ns_per_event": stats.Ratio(total["corpus.get"].ns+total["trace.decode"].ns, ev),

		"journal.append_ns":      total["journal.append"].ns / float64(len(ins)),
		"journal.open_replay_ns": total["journal.open_replay"].ns / float64(len(ins)),
	}
	direct := 0.0
	for _, name := range directLayers {
		direct += total[name].ns
	}
	m["pipeline.self_ns_per_event"] = stats.Ratio(total["pipeline.run"].ns-direct, ev)
	m["pipeline.layers_to_run_ratio"] = stats.Ratio(direct, total["pipeline.run"].ns)
	stageSum := 0.0
	for _, st := range stageNames {
		stageSum += total["stage."+st].ns
	}
	for _, st := range stageNames {
		m["pipeline.stage_share."+st] = stats.Ratio(total["stage."+st].ns, stageSum)
	}
	return m, nil
}

var stageNames = []string{"record", "replay", "classify", "quantify", "report"}

func project(cs []cost, f func(cost) float64) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = f(c)
	}
	return out
}

const extraReps = 3

// extras measures the layer entry points the op path does not reach
// (other codecs, the table-hit classify path, the caches, corpus and
// journal writes), each a few times on the same input.
func (p *prober) extras(dir string, store *corpus.Store, in *input) error {
	p.root = 0
	tr, err := trace.ReadAny(bytes.NewReader(in.data))
	if err != nil {
		return err
	}
	tr.Warm()
	var col, js bytes.Buffer
	if err := tr.WriteColumnar(&col); err != nil {
		return err
	}
	if err := tr.WriteJSON(&js); err != nil {
		return err
	}
	css := tr.ExtractCS()
	table, _ := ulcp.BuildVerdictTable(tr, css, ulcp.Options{})
	cached := pipeline.New(pipeline.Options{CacheSize: 4})
	hitReq := pipeline.Request{Trace: tr, TraceDigest: in.digest, TraceBytes: int64(len(in.data))}
	if _, err := cached.Run(hitReq); err != nil {
		return err
	}
	app, ok := workload.Get(in.spec.App)
	if !ok {
		return fmt.Errorf("unknown workload %q", in.spec.App)
	}
	jdir := filepath.Join(dir, "journal-"+in.digest[len(corpus.DigestPrefix):][:12])
	jn, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return err
	}
	defer jn.Close()
	spec, err := json.Marshal(map[string]any{"trace": in.digest})
	if err != nil {
		return err
	}
	scratch := filepath.Join(dir, "put-scratch")

	steps := []struct {
		name string
		fn   func(i int) error
	}{
		{"sim.record", func(int) error {
			sim.Run(app.Build(workload.Config{Threads: in.spec.Threads, Scale: in.spec.Scale, Seed: in.spec.Seed}), sim.Config{Seed: in.spec.Seed})
			return nil
		}},
		{"trace.decode_columnar", func(int) error { _, err := trace.ReadColumnar(bytes.NewReader(col.Bytes())); return err }},
		{"trace.parse_columnar", func(int) error { _, err := trace.ParseColumnar(col.Bytes()); return err }},
		{"trace.decode_json", func(int) error { _, err := trace.ReadJSON(bytes.NewReader(js.Bytes())); return err }},
		{"trace.encode_binary", func(int) error { var b bytes.Buffer; return tr.WriteBinary(&b) }},
		{"replay.schemes4", func(int) error {
			for _, s := range []replay.Scheduler{replay.OrigS, replay.ELSCS, replay.SyncS, replay.MemS} {
				if _, err := replay.Run(tr, replay.Options{Sched: s}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ulcp.shards_with_table", func(int) error {
			groups := ulcp.SortedLockGroups(css)
			shards := make([]*ulcp.Report, len(groups))
			for i, g := range groups {
				shards[i] = ulcp.IdentifyShardWithVerdicts(tr, g, ulcp.Options{}, table)
			}
			ulcp.MergeReports(shards...)
			return nil
		}},
		{"pipeline.result_hit", func(int) error {
			res, err := cached.Run(hitReq)
			if err == nil && !res.CacheHit {
				err = fmt.Errorf("expected a result-cache hit")
			}
			return err
		}},
		{"corpus.open", func(int) error { _, err := corpus.Open(filepath.Join(dir, "corpus"), corpus.Options{}); return err }},
		{"corpus.put", func(i int) error {
			// A fresh store each time: Put of bytes a store already holds is
			// a no-op, and the write is what is being measured.
			d := fmt.Sprintf("%s-%d", scratch, i)
			defer os.RemoveAll(d)
			s, err := corpus.Open(d, corpus.Options{})
			if err != nil {
				return err
			}
			_, _, err = s.Put(in.data, false)
			return err
		}},
		{"journal.append", func(i int) error {
			return jn.Append(journal.Record{Op: journal.OpAdmitted, Job: fmt.Sprintf("job-%d", i), Spec: spec})
		}},
	}
	for _, s := range steps {
		for i := 0; i < extraReps; i++ {
			if err := p.call(s.name, func() error { return s.fn(i) }); err != nil {
				return err
			}
		}
	}
	// The pool-width comparison pays Validate and Warm like the serial
	// pipeline.run span it is compared with, so it too gets a freshly
	// decoded trace each time.
	for i := 0; i < extraReps; i++ {
		fresh, err := trace.ReadAny(bytes.NewReader(in.data))
		if err != nil {
			return err
		}
		if err := p.call("pipeline.run_workers4", func() error {
			_, err := pipeline.Run(pipeline.Request{Trace: fresh, Workers: 4})
			return err
		}); err != nil {
			return err
		}
	}
	// Replay-on-open over a journal of 1000 records, half of them live.
	// The filling is not measured, so it skips the per-record fsync.
	rdir := jdir + "-replay"
	fill, err := journal.Open(rdir, journal.Options{NoSync: true})
	if err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		op, job := journal.OpAdmitted, i
		if i >= 500 && i%2 == 1 {
			op, job = journal.OpSettled, i-500
		}
		if err := fill.Append(journal.Record{Op: op, Job: fmt.Sprintf("job-%d", job), Spec: spec}); err != nil {
			fill.Close()
			return err
		}
	}
	if err := fill.Close(); err != nil {
		return err
	}
	for i := 0; i < extraReps; i++ {
		if err := p.call("journal.open_replay", func() error {
			j, err := journal.Open(rdir, journal.Options{})
			if err != nil {
				return err
			}
			return j.Close()
		}); err != nil {
			return err
		}
	}
	return nil
}
