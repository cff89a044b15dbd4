package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"perfplay/internal/stats"
)

// countMetrics are exact, seed-determined counts: two run files of the
// same seed must agree on them to the unit.
var countMetrics = []string{
	"trace.events", "trace.critsecs", "ulcp.pairs", "ulcp.ulcps", "ulcp.reversed_replays", "perfdbg.groups",
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's runs in the base file (a) and the changed
// file (b). worse is how much b's median is worse than a's, as a share
// of a's median. A spread wider than the bound cannot show "no
// regression", so the verdict is then unresolved unless every run of b
// reads better than every run of a.
func judge(d metricDecl, a, b []float64) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	worse = stats.Ratio(mb-ma, ma)
	if d.Better == "higher" {
		worse = -worse
	}
	spread = max(spreadShare(a), spreadShare(b))
	if spread > d.Bound {
		if allBetter(d, a, b) {
			return verdictOK, worse, spread
		}
		return verdictUnresolved, worse, spread
	}
	if worse > d.Bound {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

func allBetter(d metricDecl, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "higher" && y <= x) || (d.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// series collects a metric's values over the runs of one workload.
func (f *runFile) series(workload string, traced bool, name string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles prints one row per workload × end-to-end metric with its
// verdict, checks failures and the exact counts, and returns a non-zero
// exit code if anything regressed.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) int {
	a, err := readRunFile(pathA)
	if err != nil {
		return fatal(err)
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return fatal(err)
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %8s %8s  %s\n", "workload", "metric", "base median", "new median", "new/base", "spread", "bound", "verdict")
	for _, wl := range sp.Workloads {
		for _, d := range sp.EndToEnd {
			xa, xb := a.series(wl.Name, false, d.Name), b.series(wl.Name, false, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-14s %-18s missing from %s\n", wl.Name, d.Name, pick(len(xa) == 0, pathA, pathB))
				code = 1
				continue
			}
			verdict, _, spread := judge(d, xa, xb)
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %9.4f %7.1f%% %7.1f%%  %s (n=%d/%d, %s, %s is better)\n",
				wl.Name, d.Name, median(xa), median(xb), stats.Ratio(median(xb), median(xa)), 100*spread, 100*d.Bound,
				verdict, len(xa), len(xb), d.Unit, d.Better)
			if verdict == verdictRegressed {
				code = 1
			}
		}
		fa, aa := a.failures(wl.Name)
		fb, ab := b.failures(wl.Name)
		verdict := verdictOK
		if stats.Ratio(float64(fb), float64(ab)) > stats.Ratio(float64(fa), float64(aa)) {
			verdict, code = verdictRegressed, 1
		}
		fmt.Fprintf(w, "%-14s %-18s %14s %14s %36s %s\n", wl.Name, "failed/attempted", fmt.Sprintf("%d/%d", fa, aa), fmt.Sprintf("%d/%d", fb, ab), "", verdict)
		if a.Seed != b.Seed {
			continue
		}
		for _, name := range countMetrics {
			ca, cb := a.series(wl.Name, true, name), b.series(wl.Name, true, name)
			if len(ca) == 0 || len(cb) == 0 {
				continue
			}
			if ca[0] != cb[0] {
				fmt.Fprintf(w, "%-14s %-18s %14.0f %14.0f %36s count differs\n", wl.Name, name, ca[0], cb[0], "")
				code = 1
			}
		}
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "seeds differ (%d, %d): exact counts not compared\n", a.Seed, b.Seed)
	}
	fmt.Fprintln(w, strings.TrimSpace(fmt.Sprintf("base: %s (%s, %s cores)   new: %s (%s, %s cores)",
		pathA, a.Hardware["cpu_model"], a.Hardware["nproc"], pathB, b.Hardware["cpu_model"], b.Hardware["nproc"])))
	return code
}

// failures sums failed and attempted ops over a workload's untraced runs.
func (f *runFile) failures(workload string) (failed, attempted int) {
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return
}
