// Command perfplay runs the PerfPlay pipeline on a modelled workload and
// prints the ranked list of ULCP optimization opportunities — the
// "List: ULCP optimization benefits" of the paper's Fig. 5. All analysis
// goes through internal/pipeline: one job on main's goroutine, plus the
// job's one fork, which replays the recording beside classification.
//
// Usage:
//
//	perfplay -app mysql -threads 2 [-scale 0.5] [-top 5]
//	         [-trace out.trace] [-trace-format columnar] [-races] [-schemes]
//	perfplay -trace-digest sha256:... [-corpus dir]
//	perfplay -list
//
// With -trace the recorded execution is also written to disk, replayable
// later via -replay; -trace-format selects the encoding (binary, json,
// or the columnar layout, which stores the side indexes too). All
// readers sniff the format, so any encoding works with -replay and the
// corpus. With
// -save-trace it is stored in the local content-addressed corpus
// (-corpus, the same on-disk layout perfplayd serves), and -trace-digest
// re-analyzes a stored trace by its sha256 digest without re-recording.
// `perfplayd submit` runs the same analysis on a perfplayd node instead,
// so this command links no HTTP stack. Each mode honours a fixed set of
// flags (modes); a flag outside it is a usage error (exit 2), never a
// silent no-op.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"perfplay/internal/corpus"
	"perfplay/internal/elision"
	"perfplay/internal/pipeline"
	"perfplay/internal/replay"
	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

var (
	appName   = flag.String("app", "", "workload to analyze (see -list)")
	threads   = flag.Int("threads", 2, "worker thread count")
	scale     = flag.Float64("scale", 1.0, "workload scale relative to the paper's setup")
	input     = flag.String("input", "simlarge", "input size: simsmall, simmedium, simlarge")
	seed      = flag.Int64("seed", 42, "recording seed")
	top       = flag.Int("top", 5, "number of recommendations to print")
	schemes   = flag.Bool("schemes", false, "also replay the recording under all four schedulers")
	traceOut  = flag.String("trace", "", "write the recorded trace to this file")
	traceFmt  = flag.String("trace-format", trace.FormatBinary, "on-disk encoding for -trace: binary, json, or columnar")
	replayIn  = flag.String("replay", "", "replay an existing trace file instead of recording")
	races     = flag.Bool("races", false, "run the happens-before detector over the ULCP-free replay")
	list      = flag.Bool("list", false, "list available workloads")
	scheduler = flag.String("sched", "elsc", "replay scheme for -replay: orig, elsc, sync, mem")
	caseNum   = flag.Int("case", 0, "analyze an appendix real-world case (1-10) instead of a full workload")
	corpusDir = flag.String("corpus", "perfplay-corpus", "content-addressed trace corpus directory (shared layout with perfplayd)")
	saveTrace = flag.Bool("save-trace", false, "store the recorded trace in the corpus and print its sha256 digest")
	digestIn  = flag.String("trace-digest", "", "analyze a stored trace from the corpus by sha256 digest instead of recording")
	le        = flag.Bool("le", false, "also run the speculative lock elision baseline on the recording")
	verifyT1  = flag.Bool("verify", false, "run the Theorem 1 correctness check on the transformation")
)

// modes lists every mode in dispatch order — the first whose selector
// holds wins — with the flags it honours. Any other flag on the command
// line is an error, not a silent no-op: a user asking for -verify must
// not get an unverified run that exits 0.
var modes = []struct {
	name     string
	selected func() bool
	honours  string
}{
	{"-list", func() bool { return *list }, "list"},
	{"-replay", func() bool { return *replayIn != "" }, "replay sched"},
	{"-trace-digest", func() bool { return *digestIn != "" }, "trace-digest corpus top schemes races verify"},
	{"-case", func() bool { return *caseNum != 0 }, "case threads scale seed top schemes races verify"},
	{"-app", func() bool { return true }, "app threads input scale seed top schemes races verify " +
		"le trace trace-format save-trace corpus"},
}

// checkFlags picks the mode the flag values select and reports the first
// of the flags set on the command line that it does not honour.
func checkFlags(set []string) (mode string, err error) {
	for _, m := range modes {
		if !m.selected() {
			continue
		}
		honoured := strings.Fields(m.honours)
		for _, name := range set {
			if !slices.Contains(honoured, name) {
				return m.name, fmt.Errorf("-%s has no effect in %s mode (it honours: -%s)",
					name, m.name, strings.Join(honoured, " -"))
			}
		}
		return m.name, nil
	}
	panic("unreachable: the last mode always selects")
}

func main() {
	// Subcommand dispatch before the legacy flag surface: `perfplay sim`
	// is the offline cluster-policy lab (see sim.go).
	if len(os.Args) > 1 && os.Args[1] == "sim" {
		os.Exit(runSim(os.Args[2:], os.Stdout))
	}
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	mode, err := checkFlags(set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfplay:", err)
		os.Exit(2)
	}

	if mode == "-list" {
		fmt.Println("available workloads:")
		for _, a := range workload.All() {
			fmt.Printf("  %-15s (%s)\n", a.Name, a.Kind)
		}
		return
	}

	if mode == "-replay" {
		if err := replayFile(*replayIn, *scheduler); err != nil {
			fatal(err)
		}
		return
	}

	if mode == "-trace-digest" {
		if err := analyzeDigest(*corpusDir, *digestIn, pipeline.Request{
			TopK:           *top,
			Schemes:        *schemes,
			DetectRaces:    *races,
			VerifyTheorem1: *verifyT1,
		}); err != nil {
			fatal(err)
		}
		return
	}

	req := pipeline.Request{
		Threads:        *threads,
		Scale:          *scale,
		Seed:           *seed,
		TopK:           *top,
		Schemes:        *schemes,
		DetectRaces:    *races,
		VerifyTheorem1: *verifyT1,
	}

	if mode == "-case" {
		p, err := workload.BuildCase(*caseNum, workload.Config{Threads: *threads, Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		req.Program = p
		res, err := pipeline.Run(req)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Report)
		return
	}

	if *appName == "" {
		fmt.Fprintln(os.Stderr, "perfplay: -app is required (or -list, -replay)")
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := workload.Get(*appName); !ok {
		fatal(fmt.Errorf("unknown workload %q; try -list", *appName))
	}
	req.App = *appName

	in, err := workload.ParseInputSize(*input)
	if err != nil {
		fatal(err)
	}
	req.Input = in

	if err := analyzeApp(req); err != nil {
		fatal(err)
	}
}

// traceWriters maps each -trace-format to its encoder.
var traceWriters = map[string]func(*trace.Trace, io.Writer) error{
	trace.FormatBinary:   (*trace.Trace).WriteBinary,
	trace.FormatColumnar: (*trace.Trace).WriteColumnar,
	trace.FormatJSON:     (*trace.Trace).WriteJSON,
}

// analyzeApp is -app mode: record and analyze the workload, print the
// report, then run the -le baseline and write or store the recording as
// asked. -trace-format is checked first, so a bad one fails before the
// analysis runs and before any file is created.
func analyzeApp(req pipeline.Request) error {
	write, ok := traceWriters[*traceFmt]
	if !ok {
		return fmt.Errorf("unknown -trace-format %q (want binary, json, or columnar)", *traceFmt)
	}
	res, err := pipeline.Run(req)
	if err != nil {
		return err
	}
	analysis := res.Analysis
	tr := analysis.Recorded.Trace

	fmt.Print(res.Report)
	if *le {
		leRes, err := elision.Run(tr, elision.Options{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("lock elision baseline: total %v (locked %v, ULCP-free %v); %d commits, %d aborts (%d false), %d fallbacks, %v wasted\n",
			leRes.Total, analysis.Debug.Tut, analysis.Debug.Tuft,
			leRes.Commits, leRes.Aborts, leRes.FalseAborts, leRes.Fallbacks, leRes.WastedWork)
	}

	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, tr, write); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%s, %d events)\n", *traceOut, *traceFmt, len(tr.Events))
	}

	if *saveTrace {
		return saveToCorpus(*corpusDir, tr)
	}
	return nil
}

// writeTraceFile encodes tr into a new file at path. Close's error is
// returned too: some file systems report a failed write only there.
func writeTraceFile(path string, tr *trace.Trace, write func(*trace.Trace, io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(tr, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// saveToCorpus stores the recording in the local content-addressed
// corpus (the same layout perfplayd serves) and prints its digest, so a
// later -trace-digest run — or a daemon job {"trace": "sha256:..."} over
// the same directory — can re-analyze it without re-recording.
func saveToCorpus(dir string, tr *trace.Trace) error {
	store, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	// Sized once: the events are all but a few KiB of a recording (header,
	// site table, memory images), and an unsized buffer doubles its way
	// there, copying as it goes.
	buf.Grow(trace.BinaryEventMin*len(tr.Events) + 8<<10)
	if err := tr.WriteBinary(&buf); err != nil {
		return err
	}
	meta, created, err := store.Put(buf.Bytes(), false)
	if err != nil {
		return err
	}
	verb := "stored in"
	if !created {
		verb = "already in"
	}
	fmt.Printf("trace %s %s: %s (%d bytes, %d events)\n", verb, dir, meta.Digest, meta.Size, meta.Events)
	return nil
}

// analyzeDigest runs the full pipeline over a trace stored in the local
// corpus, identified by content digest. The digest also keys the result
// cache, matching the daemon's keying for the same stored trace.
func analyzeDigest(dir, digest string, req pipeline.Request) error {
	store, err := corpus.Open(dir, corpus.Options{})
	if err != nil {
		return err
	}
	tr, meta, err := store.Load(digest)
	if err != nil {
		return err
	}
	req.Trace = tr
	req.TraceDigest = meta.Digest
	res, err := pipeline.Run(req)
	if err != nil {
		return err
	}
	fmt.Printf("analyzing %s %s (%d events, %d threads)\n", meta.App, meta.Digest, meta.Events, meta.Threads)
	fmt.Print(res.Report)
	return nil
}

// replayFile loads a trace from disk and replays it under the chosen
// scheme, reporting the replayed time and ULCP summary.
func replayFile(path, scheme string) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	var sched replay.Scheduler
	switch strings.ToLower(scheme) {
	case "orig":
		sched = replay.OrigS
	case "elsc":
		sched = replay.ELSCS
	case "sync":
		sched = replay.SyncS
	case "mem":
		sched = replay.MemS
	default:
		return fmt.Errorf("unknown scheduler %q", scheme)
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	// Validate's loops are vacuous on an event-free trace; reject it as the
	// pipeline does rather than replay nothing.
	if len(tr.Events) == 0 || tr.NumThreads == 0 {
		return fmt.Errorf("%s: empty trace (%d events, %d threads)", path, len(tr.Events), tr.NumThreads)
	}
	res, err := replay.Run(tr, replay.Options{Sched: sched})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s (%d events, %d threads) under %v\n",
		tr.App, len(tr.Events), tr.NumThreads, sched)
	fmt.Printf(" recorded total: %v   replayed total: %v\n", tr.TotalTime, res.Total)
	css := tr.ExtractCS()
	rep := ulcp.Identify(tr, css, ulcp.Options{})
	fmt.Printf(" critical sections: %d  ULCPs: %d  TLCPs: %d\n",
		len(css), rep.NumULCPs(), rep.Counts[ulcp.TLCP])
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfplay:", err)
	os.Exit(1)
}
