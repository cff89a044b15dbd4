// Command bench is the repository's benchmark: it builds perfplay and
// perfplayd from the checkout, drives them from outside as a user
// would (CLI processes, HTTP calls), checks every report they serve, and
// prints the end-to-end metrics declared in BENCHMARK.json; a separate
// traced run calls each package's exported functions under spans and
// prints the per-layer metrics. See README.md.
//
//	bash bench/run.sh --workload cli-scan --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh --seed 42            # every workload, untraced then traced
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"perfplay/internal/stats"
)

// metric is one measured value as the contract's result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// spec is BENCHMARK.json: the declared workloads, metrics, units,
// directions and bounds. The harness prints exactly the declared
// metrics, with the declared units.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// declared shapes measured values into the declared metric set; a
// declared metric the run did not produce is an error, so the file and
// the harness cannot drift apart.
func declared(decls []metricDecl, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %q but the run did not measure it", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func main() {
	// A signal must not orphan a daemon: stop them all, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		root    = fs.String("root", "..", "repository checkout to build and measure")
		name    = fs.String("workload", "", "run one workload and print the contract's result line (default: all of them, untraced then traced)")
		seed    = fs.Int64("seed", goldenSeed, "seed every input is generated from")
		seconds = fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		traced  = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
		runs    = fs.Int("runs", 1, "all-workloads mode: untraced runs per workload, on seeds seed, seed+1, ...")
		out     = fs.String("out", "", "all-workloads mode: where the run file goes (default bench/out/run.json)")
		compare = fs.Bool("compare", false, "compare two run files: -compare A.json B.json")
		smoke   = fs.Bool("smoke", false, "tiny inputs, for the harness's own test")
		update  = fs.Bool("update-golden", false, "rewrite bench/golden/seed42.json from the in-process references (seed 42 only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*root)
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two run files"))
		}
		return compareFiles(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		return fatal(err)
	}
	e := &env{root: abs, buildDir: filepath.Join(abs, ".bench_build"), outDir: filepath.Join(abs, "bench", "out"), smoke: *smoke}
	buildS, err := e.build()
	if err != nil {
		return fatal(err)
	}
	logf("bench.build_s %.3f s (go build of perfplay and perfplayd; not part of setup_s)", buildS)

	var gold golden
	if *seed == goldenSeed && !*smoke {
		if gold, err = loadGolden(e.root); err != nil && !*update {
			return fatal(err)
		}
	}
	if *update {
		if *seed != goldenSeed || *smoke {
			return fatal(fmt.Errorf("-update-golden needs -seed %d without -smoke", goldenSeed))
		}
		return updateGolden(e)
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var r *runRecord
		if *traced == 1 {
			r, err = e.runTraced(sp, w, *seed, *seconds)
		} else {
			r, err = e.runUntraced(sp, w, *seed, *seconds, gold[w.name])
		}
		if err != nil {
			return fatal(err)
		}
		r.log()
		line, err := json.Marshal(r.result)
		if err != nil {
			return fatal(err)
		}
		fmt.Println(string(line))
		return r.exitCode()
	}

	file := runFile{Hardware: hardware(e), Seed: *seed, Seconds: *seconds, BuildS: buildS}
	code := 0
	for _, w := range workloads {
		var untraced *runRecord
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			var pins map[string]pinned
			if s == goldenSeed {
				pins = gold[w.name]
			}
			r, err := e.runUntraced(sp, w, s, *seconds, pins)
			if err != nil {
				return fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			r.log()
			file.Runs = append(file.Runs, r)
			code = max(code, r.exitCode())
			untraced = r
		}
		r, err := e.runTraced(sp, w, *seed, *seconds)
		if err != nil {
			return fatal(fmt.Errorf("%s traced: %w", w.name, err))
		}
		// Tracing lives in the harness, so its cost is the difference in
		// throughput between the traced ops and the untraced run.
		r.Extra["bench.trace_overhead_share"] = 1 - stats.Ratio(r.tracedEventsPerS, untraced.Metrics["events_per_s"].Value)
		r.log()
		file.Runs = append(file.Runs, r)
		code = max(code, r.exitCode())
	}
	if *out == "" {
		*out = filepath.Join(e.outDir, "run.json")
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return fatal(err)
	}
	logf("wrote %s", *out)
	return code
}

// runFile is what the all-workloads mode writes and -compare reads.
type runFile struct {
	Hardware map[string]string `json:"hardware"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	BuildS   float64           `json:"build_s"`
	Runs     []*runRecord      `json:"runs"`
}

// runRecord is one run of one workload: the contract's result plus what
// identifies the run and how many samples stand behind each metric.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
	Samples  map[string]int     `json:"samples,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"` // measured but not declared in BENCHMARK.json
	Failures []string           `json:"failures,omitempty"`

	tracedEventsPerS float64
}

// exitCode is non-zero for a run with a failed op, a report mismatch or
// a violated workload assertion.
func (r *runRecord) exitCode() int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

// log prints every metric by name with its unit and sample count.
func (r *runRecord) log() {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	logf("== %s seed %d %s: correct=%t attempted=%d failed=%d", r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		if s, ok := r.Samples[n]; ok {
			logf("  %-40s %14.4f %s (n=%d)", n, m.Value, m.Unit, s)
		} else {
			logf("  %-40s %14.4f %s", n, m.Value, m.Unit)
		}
	}
	names = names[:0]
	for n := range r.Extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("  %-40s %14.4f (undeclared)", n, r.Extra[n])
	}
	for _, f := range r.Failures {
		logf("  FAILED: %s", f)
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 1
}
