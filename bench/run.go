package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"perfplay/internal/corpus"
	"perfplay/internal/stats"
)

// clients is the number of closed-loop callers (and connections) the
// daemon workloads use. It is the core count of the reference box and
// deliberately not scaled with the machine.
const clients = 2

// env is where one invocation builds, runs and writes.
type env struct {
	root      string // repository checkout
	buildDir  string // binaries, Go build cache, temp directories
	outDir    string // daemon logs, spans, run.json
	perfplay  string
	perfplayd string
	smoke     bool
}

func (e *env) tmp() string { return filepath.Join(e.buildDir, "tmp") }

// build compiles the two product binaries from the checkout's source.
func (e *env) build() (float64, error) {
	start := time.Now()
	bin := filepath.Join(e.buildDir, "bin")
	for _, d := range []string{bin, e.tmp(), e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 0, err
		}
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/perfplay", "./cmd/perfplayd")
	cmd.Dir = e.root
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(e.buildDir, "gocache"), "TMPDIR="+e.tmp(), "XDG_CONFIG_HOME="+filepath.Join(e.buildDir, "config"),
		"GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build perfplay, perfplayd: %v\n%s", err, out)
	}
	e.perfplay, e.perfplayd = filepath.Join(bin, "perfplay"), filepath.Join(bin, "perfplayd")
	return time.Since(start).Seconds(), nil
}

// state is a workload after set-up: its generated inputs and either a
// seeded corpus directory (CLI workloads) or a warmed daemon.
type state struct {
	inputs []*input
	dir    string
	d      *daemon
	warm   *phase // the warm-up ops (daemon workloads)
}

func (s *state) teardown() {
	if s == nil {
		return
	}
	s.d.stop()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// setup is the untimed preparation of one workload: generate the traces
// from the seed, then seed a corpus (CLI) or boot a daemon and serve the
// warm-up ops (daemon).
func (e *env) setup(w workloadDef, p plan) (st *state, err error) {
	st = &state{}
	defer func() {
		if err != nil {
			st.teardown()
			st = nil
		}
	}()
	if st.inputs, err = generateAll(p.traces); err != nil {
		return
	}
	if !w.daemon {
		st.dir, err = e.seedCorpus(st.inputs)
		return
	}
	if st.dir, err = os.MkdirTemp(e.tmp(), w.name+"-"); err != nil {
		return
	}
	if st.d, err = startDaemon(e.perfplayd, filepath.Join(st.dir, "node"), filepath.Join(e.outDir, "perfplayd-"+w.name+".log")); err != nil {
		return
	}
	err = st.warmUp(p.warm)
	return
}

// warmUp serves ops on the set-up daemon before anything is timed: first
// the ops that upload their trace, to the last one, then the others, so
// that no caller asks for a trace another is still uploading.
func (st *state) warmUp(ops []opSpec) error {
	st.warm = newPhase()
	var uploads, rest []opSpec
	for _, o := range ops {
		if o.Upload {
			uploads = append(uploads, o)
		} else {
			rest = append(rest, o)
		}
	}
	for _, stage := range [][]opSpec{uploads, rest} {
		l := newLoad(st, func(i int) (opSpec, bool) {
			if i < len(stage) {
				return stage[i], true
			}
			return opSpec{}, false
		}, nil, 0, st.warm)
		l.segment(time.Now().Add(time.Hour))
		l.close()
	}
	if st.warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed: %v", st.warm.failed, st.warm.attempted, st.warm.failures)
	}
	return nil
}

// seedCorpus stores the inputs in a fresh corpus directory, as
// `perfplay -save-trace` would have, and returns its parent.
func (e *env) seedCorpus(ins []*input) (string, error) {
	dir, err := os.MkdirTemp(e.tmp(), "corpus-")
	if err != nil {
		return "", err
	}
	store, err := corpus.Open(filepath.Join(dir, "corpus"), corpus.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	for _, in := range ins {
		if _, _, err := store.Put(in.data, false); err != nil {
			os.RemoveAll(dir)
			return "", err
		}
	}
	return dir, nil
}

// timed is what the clock and the process accounting saw of a phase.
type timed struct {
	wallS float64   // time spent on ops; the calibration pauses are not in it
	cpuS  float64   // product-process user+system CPU
	latMS []float64 // successful ops only
}

// at returns the same observations on a box whose wall clock and CPU
// clock run that many times faster.
func (t timed) at(wall, cpu float64) timed {
	out := timed{wallS: t.wallS / wall, cpuS: t.cpuS / cpu, latMS: make([]float64, len(t.latMS))}
	for i, l := range t.latMS {
		out.latMS[i] = l / wall
	}
	return out
}

// phase is what a run of ops observed.
type phase struct {
	raw       timed   // as measured
	ref       timed   // at reference speed: every stretch divided by the speed factor of its moment (calib.go)
	speed     speed   // kernel timings taken in the calibration pauses
	events    float64 // events of the traces behind successful ops
	peakRSSMB float64
	attempted int
	failed    int
	failures  []string // first few failure messages

	// reports maps an op key to the sha256 of the report served for it;
	// two different reports for one key count as a failure on the spot.
	reports map[string]string
	perKey  map[string]int
	specs   map[string]opSpec

	uploadMS, submitMS, pollMS []float64
	queueMS, executeMS         []float64 // from the daemon's own spans (sampled)
	outsideMS                  []float64 // op latency minus the daemon's pipeline stage time
	missMS                     []float64 // latency of the ops that missed the result cache
	hits                       int
	order                      []opSpec // successful daemon ops, in the order they finished
}

func newPhase() *phase {
	return &phase{reports: map[string]string{}, perKey: map[string]int{}, specs: map[string]opSpec{}}
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// served records the report an op returned and checks it against what
// the same key returned before.
func (ph *phase) served(o opSpec, report []byte) bool {
	sum := sha256.Sum256(report)
	h := hex.EncodeToString(sum[:])
	k := o.key()
	if prev, ok := ph.reports[k]; ok && prev != h {
		ph.fail("%s: report %s differs from earlier report %s for the same key", k, h[:12], prev[:12])
		return false
	}
	ph.reports[k] = h
	ph.perKey[k]++
	ph.specs[k] = o
	return true
}

// cliPhase runs sequential CLI ops until they have taken d: one fresh
// `perfplay -trace-digest D -corpus DIR` process per op, timed from
// start to exit, report read from stdout. The calibration kernel runs
// once before every op and once after the last, and each op is brought to
// reference speed by the two kernel timings around it: the box's speed
// changes from one second to the next, and a run-wide factor leaves
// those swings in op_p90_ms.
func (e *env) cliPhase(st *state, next func(int) (opSpec, bool), d time.Duration) *phase {
	ph := newPhase()
	var rssMB []float64
	// One process: its wall and CPU seconds, and the index of the kernel
	// timing taken just before it (the next one is taken just after it).
	type run struct {
		wallS, cpuS float64
		k           int
		ok          bool
	}
	var runs []run
	for i := 0; ph.raw.wallS < d.Seconds(); i++ {
		o, ok := next(i)
		if !ok {
			break
		}
		ph.speed.sample(1)
		r := run{k: len(ph.speed.ms) - 1}
		in := st.inputs[o.Trace]
		ph.attempted++
		cmd := exec.Command(e.perfplay, "-trace-digest", in.digest, "-corpus", filepath.Join(st.dir, "corpus"))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		t := time.Now()
		out, err := cmd.Output()
		lat := time.Since(t)
		r.wallS = lat.Seconds()
		ph.raw.wallS += r.wallS
		switch {
		case err != nil:
			ph.fail("perfplay: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		case lat > opTimeout:
			ph.fail("perfplay took %v", lat)
		case ph.served(o, out):
			ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
			r.ok, r.cpuS = true, tv(ru.Utime)+tv(ru.Stime)
			rssMB = append(rssMB, float64(ru.Maxrss)/1024) // ru_maxrss is in KiB on Linux
			ph.events += float64(in.events)
		}
		runs = append(runs, r)
	}
	ph.speed.sample(1)
	for _, r := range runs {
		wall, cpu := ph.speed.around(r.k)
		ph.ref.wallS += r.wallS / wall
		if r.ok {
			ph.raw.cpuS += r.cpuS
			ph.ref.cpuS += r.cpuS / cpu
			ph.raw.latMS = append(ph.raw.latMS, r.wallS*1e3)
			ph.ref.latMS = append(ph.ref.latMS, r.wallS*1e3/wall)
		}
	}
	// The mean process's peak, not the largest: where the collector's
	// cycles fall moves one process's peak by a quarter (see cliTraces),
	// and the largest of two hundred is that noise alone.
	ph.peakRSSMB = stats.Sample(rssMB).Mean()
	return ph
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// segments is how many stretches a daemon phase is cut into; between
// two stretches the callers finish the op they are in and wait while the
// calibration kernel runs alone.
const segments = 20

// daemonPhase runs closed-loop ops against the set-up daemon from
// `clients` callers until the ops have had d or the op sequence is
// spent. With a recorder, every op's HTTP calls become spans and one op
// in sampleEvery also pulls the daemon's own span timeline.
func (e *env) daemonPhase(st *state, next func(int) (opSpec, bool), d time.Duration, rec *recorder, sampleEvery int) *phase {
	l := newLoad(st, next, rec, sampleEvery, newPhase())
	defer l.close()
	ph := l.ph
	pid := st.d.cmd.Process.Pid
	cpu0, _ := procCPU(pid) // a vanished process shows up as failed ops below
	for seg := 0; seg < segments && !l.spent.Load(); seg++ {
		ph.speed.sample(3)
		start := time.Now()
		l.segment(start.Add(d / segments))
		ph.raw.wallS += time.Since(start).Seconds()
	}
	ph.speed.sample(3)
	if cpu1, err := procCPU(pid); err == nil {
		ph.raw.cpuS = cpu1 - cpu0
	}
	// One factor for the whole phase: a daemon that has just been left
	// alone may still be collecting garbage, so a single pause's kernel
	// timing says too little about the segments beside it.
	ph.ref = ph.raw.at(ph.speed.factor())
	ph.peakRSSMB, _ = procStatusMB(pid, "VmHWM") // 0 (and failed ops) if the daemon is gone
	return ph
}

// load is the generator's state across the segments of one daemon
// phase: one connection per caller, the next op's index, and the phase
// the observations go to (under mu).
type load struct {
	st          *state
	cls         []*client
	next        func(int) (opSpec, bool)
	rec         *recorder
	sampleEvery int

	idx   atomic.Int64
	spent atomic.Bool // the op sequence has run out
	mu    sync.Mutex
	ph    *phase
}

func newLoad(st *state, next func(int) (opSpec, bool), rec *recorder, sampleEvery int, ph *phase) *load {
	l := &load{st: st, next: next, rec: rec, sampleEvery: sampleEvery, ph: ph, cls: make([]*client, clients)}
	for c := range l.cls {
		l.cls[c] = newClient(st.d.base)
	}
	return l
}

func (l *load) close() {
	for _, cl := range l.cls {
		cl.close()
	}
}

// segment lets every caller issue ops until the deadline and returns
// once each has finished the op it was in.
func (l *load) segment(deadline time.Time) {
	st, rec, ph := l.st, l.rec, l.ph
	var wg sync.WaitGroup
	for _, cl := range l.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(l.idx.Add(1)) - 1
				o, ok := l.next(i)
				if !ok {
					l.spent.Store(true)
					return
				}
				in := st.inputs[o.Trace]
				sp := rec.begin(i+1, 0, "op")
				t := time.Now()
				res, err := cl.runOp(rec, i+1, sp, in, o)
				lat := time.Since(t)
				rec.end(sp)
				var tl *serverTimeline
				if err == nil && rec != nil && l.sampleEvery > 0 && i%l.sampleEvery == 0 {
					tl, err = cl.serverSpans(rec, i+1, sp, res.job.ID)
				}
				l.mu.Lock()
				ph.attempted++
				switch {
				case err != nil:
					ph.fail("op %d (%s): %v", i, o.key(), err)
				case st.d.alive() != nil:
					ph.fail("op %d: %v", i, st.d.alive())
				case ph.served(o, []byte(res.job.Report)):
					ph.raw.latMS = append(ph.raw.latMS, ms(lat))
					ph.events += float64(in.events)
					if o.Upload {
						ph.uploadMS = append(ph.uploadMS, res.uploadMS)
					}
					ph.submitMS = append(ph.submitMS, res.submitMS)
					ph.pollMS = append(ph.pollMS, res.pollMS)
					stages := 0.0
					if res.job.CacheHit {
						ph.hits++
					} else {
						ph.missMS = append(ph.missMS, ms(lat))
						for _, s := range res.job.Timings {
							stages += float64(s.WallNS) / 1e6
						}
					}
					ph.order = append(ph.order, o)
					ph.outsideMS = append(ph.outsideMS, ms(lat)-stages)
					if tl != nil {
						ph.queueMS = append(ph.queueMS, tl.queueMS)
						ph.executeMS = append(ph.executeMS, tl.executeMS)
					}
				}
				l.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}
