// Command experiments regenerates the paper's evaluation tables and
// figures (Sec. 6) on the simulated substrate. Selected experiments run
// concurrently, one whole experiment per worker; their artifacts are
// buffered and printed in the canonical order, so output is identical
// at any -workers width.
//
// Usage:
//
//	experiments                 # run everything at paper scale
//	experiments -run table1     # one experiment
//	experiments -scale 0.25     # quicker, smaller runs
//	experiments -workers 4      # fan experiments out over 4 workers
//
// Experiment names: table1, table2, table3, figure2, figure13, figure14,
// figure15, figure16, figure19, table-le, table-static.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"perfplay/internal/experiments"
	"perfplay/internal/pipeline"
	"perfplay/internal/report"
	"perfplay/internal/vtime"
)

func main() {
	var (
		run     = flag.String("run", "all", "experiment to run (comma separated), or 'all'")
		scale   = flag.Float64("scale", 1.0, "workload scale relative to the paper's setup")
		seed    = flag.Int64("seed", 42, "recording seed")
		replays = flag.Int("replays", 10, "replays per scheme for figure13")
		lscost  = flag.Int64("lockset-cost", 8, "lockset maintenance cost per member (ticks)")
		workers = flag.Int("workers", 1, "experiments run concurrently (output order is fixed)")
	)
	flag.Parse()

	cfg := experiments.Config{
		Scale:       *scale,
		Seed:        *seed,
		Replays:     *replays,
		LocksetCost: vtime.Duration(*lscost),
	}

	all := map[string]func() string{
		"table1":       func() string { return experiments.Table1(cfg).String() },
		"table2":       func() string { return experiments.Table2(cfg).String() },
		"table3":       func() string { return experiments.Table3(cfg).String() },
		"figure2":      func() string { return experiments.Figure2(cfg).String() },
		"figure13":     func() string { return experiments.Figure13(cfg).String() },
		"figure14":     func() string { return experiments.Figure14(cfg).String() },
		"figure15":     func() string { return joinAll(experiments.Figure15(cfg)) },
		"figure16":     func() string { return joinAll(experiments.Figure16(cfg)) },
		"figure19":     func() string { return joinAll(experiments.Figure19(cfg)) },
		"table-le":     func() string { return experiments.TableLE(cfg).String() },
		"table-static": func() string { return experiments.TableStatic(cfg).String() },
	}
	order := []string{"table1", "figure2", "figure13", "figure14", "table2", "table3", "figure15", "figure16", "figure19", "table-le", "table-static"}

	names := order
	if *run != "all" {
		names = strings.Split(*run, ",")
	}
	tasks := make([]func() string, len(names))
	for i, n := range names {
		n = strings.TrimSpace(strings.ToLower(n))
		f, ok := all[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", n)
			os.Exit(2)
		}
		tasks[i] = f
	}

	// Experiments run concurrently; a watermark printer flushes each
	// artifact as soon as it and all its predecessors are done, so
	// output stays incremental (exactly like the old serial loop when
	// -workers=1) yet in canonical order at any width.
	type artifact struct {
		i   int
		out string
	}
	ch := make(chan artifact, len(tasks))
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		pending := make(map[int]string, len(tasks))
		next := 0
		for a := range ch {
			pending[a.i] = a.out
			for out, ok := pending[next]; ok; out, ok = pending[next] {
				fmt.Println(out)
				delete(pending, next)
				next++
			}
		}
	}()
	pipeline.NewPool(*workers).Each(len(tasks), func(i int) { ch <- artifact{i, tasks[i]()} })
	close(ch)
	<-printed
}

func joinAll(xs []*report.Figure) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, "\n")
}
