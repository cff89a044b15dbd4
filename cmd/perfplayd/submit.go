package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"perfplay/internal/jobs"
	"perfplay/internal/peerclient"
)

// workloadFlags say how a workload is recorded. A -trace-digest job is
// a recording already, so each of them is an error beside it.
var workloadFlags = []string{"app", "threads", "input", "scale", "seed"}

// submitWait is how long one long poll of the accepting node waits.
const submitWait = 30 * time.Second

// runSubmit is `perfplayd submit`, the daemon's command-line client. It
// submits one job, a workload spec or a stored trace's digest, to the
// node at -daemon, following any 503 Retry-Peer admission redirect to an
// idler node, long-polls the accepting node until the job settles, and
// prints its report to stdout: the bytes `perfplay` prints for the same
// job run locally (`perfplay -trace-digest` adds one header line). It
// returns the exit code: 2 for a usage error, 1 for a failed submit or
// job.
func runSubmit(argv []string, stdout, stderr io.Writer) int {
	base, spec, err := parseSubmit(argv, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	}
	if err := submit(base, spec, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "perfplayd submit:", err)
		return 1
	}
	return 0
}

// parseSubmit reads `perfplayd submit`'s command line: the node's base
// URL and the spec to send it. Its flags and their defaults are
// perfplay's, and each flag is honoured or an error naming it, which
// it also prints to output with the usage.
func parseSubmit(argv []string, output io.Writer) (string, analyzeSpec, error) {
	fs := flag.NewFlagSet("perfplayd submit", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: perfplayd submit -daemon URL (-app NAME [-threads N] [-input SIZE] [-scale X] [-seed N]"+
			" | -trace-digest sha256:...) [-top N] [-schemes] [-races]\n\n"+
			"Runs one analysis on a perfplayd node and prints its report.\n\n")
		fs.PrintDefaults()
	}
	var spec analyzeSpec
	base := fs.String("daemon", "", "base URL of the perfplayd node to submit to (503 Retry-Peer redirects are followed)")
	fs.StringVar(&spec.App, "app", "", "workload to analyze")
	fs.IntVar(&spec.Threads, "threads", 2, "worker thread count")
	fs.StringVar(&spec.Input, "input", "simlarge", "input size: simsmall, simmedium, simlarge")
	fs.Float64Var(&spec.Scale, "scale", 1.0, "workload scale relative to the paper's setup")
	fs.Int64Var(&spec.Seed, "seed", 42, "recording seed")
	fs.StringVar(&spec.Trace, "trace-digest", "", "analyze a trace stored in the node's corpus, by sha256 digest, instead of recording")
	fs.IntVar(&spec.Top, "top", 5, "number of recommendations to print")
	fs.BoolVar(&spec.Schemes, "schemes", false, "also replay the recording under all four schedulers")
	fs.BoolVar(&spec.Races, "races", false, "run the happens-before detector over the ULCP-free replay")
	if err := fs.Parse(argv); err != nil {
		return "", spec, err
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && spec.Trace != "" && slices.Contains(workloadFlags, f.Name) {
			err = fmt.Errorf("-%s has no effect with -trace-digest (a stored trace is recorded already)", f.Name)
		}
	})
	switch {
	case err != nil:
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case *base == "":
		err = errors.New("-daemon URL is required")
	case spec.Trace != "":
		spec = analyzeSpec{Trace: spec.Trace, Top: spec.Top, Schemes: spec.Schemes, Races: spec.Races}
	case spec.App == "":
		err = errors.New("-app or -trace-digest is required")
	}
	if err != nil {
		fmt.Fprintln(output, "perfplayd submit:", err)
	}
	return strings.TrimRight(*base, "/"), spec, err
}

// submit runs spec on the node at base and prints the settled job's
// report to stdout, and to stderr the node that accepted it when that
// is not base.
func submit(base string, spec analyzeSpec, stdout, stderr io.Writer) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var client peerclient.Client
	id, accepted, err := client.Submit(base, body)
	if err != nil {
		return err
	}
	if accepted != base {
		fmt.Fprintf(stderr, "perfplayd submit: redirected to %s (submitted node was full)\n", accepted)
	}
	j, err := client.Wait(accepted, id, submitWait)
	if err != nil {
		return err
	}
	if j.Status == jobs.Failed {
		return fmt.Errorf("daemon job %s failed: %s", id, j.Error)
	}
	_, err = io.WriteString(stdout, j.Report)
	return err
}
