package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"perfplay/internal/clustersim"
)

// runSim is the `perfplay sim` subcommand: the offline policy lab.
// It runs seeded cluster scenarios through internal/clustersim —
// the real scheduler and cache policy code over a simulated fabric —
// and prints the deterministic report (same seed, same bytes) to out.
// With -sweep it grids the policy knobs instead and prints the ranked
// table.
func runSim(argv []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfplay sim", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: perfplay sim [flags]\n\n"+
			"Runs a seeded, deterministic cluster-scheduling scenario against the real\n"+
			"perfplayd policy code (queue, stealer, gossip, cache probes) on an in-memory\n"+
			"transport. Same seed, byte-identical output.\n\n")
		fs.PrintDefaults()
	}
	var (
		scenario = fs.String("scenario", "skewed", `scenario: uniform, skewed, slownode, crash, cachewarm, partition, admission, or "all"`)
		seed     = fs.Int64("seed", 42, "simulation seed (all randomness derives from it)")
		sweep    = fs.Bool("sweep", false, "grid steal interval × probe fan-out × probe timeout × hint breadth over the scenario and rank the results")

		nodes    = fs.Int("nodes", 0, "cluster size (0 = scenario default)")
		workers  = fs.Int("workers", 0, "workers per node (0 = scenario default)")
		queue    = fs.Int("queue", 0, "per-node queue depth (0 = scenario default)")
		duration = fs.Int64("duration", 0, "arrival window, ms (0 = scenario default)")
		arrival  = fs.Int64("arrival", 0, "mean inter-arrival gap, ms (0 = scenario default)")
		interval = fs.Int64("steal-interval", 0, "stealer tick cadence, ms (0 = scenario default)")
		lease    = fs.Int64("lease", 0, "steal lease, ms (0 = scenario default)")
		slow     = fs.Int64("slow-factor", 0, "slow-node cost multiplier for slownode (0 = default)")
		crashN   = fs.Int("crash-node", -1, "crash scenario: node to kill (-1 = busiest thief)")
		crashAt  = fs.Int64("crash-at", 0, "crash scenario: kill time, ms (0 = default)")

		probeFanout  = fs.Int("probe-fanout", -1, "peers probed per cache-missed job (0 disables probing; -1 = perfplayd default)")
		probeTimeout = fs.Int64("probe-timeout", 0, "per-peer cache probe timeout, ms (0 = perfplayd default)")
		hintBreadth  = fs.Int("hint-breadth", -1, "recent result keys gossiped as cache hints (-1 = perfplayd default)")
		warmNodes    = fs.Int("warm-nodes", -1, "nodes pre-warmed with the whole digest pool (-1 = scenario default)")
	)
	fs.Parse(argv)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfplay sim: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	scenarios := []string{*scenario}
	if *scenario == "all" {
		scenarios = clustersim.Scenarios()
	}
	for i, sc := range scenarios {
		cfg := clustersim.DefaultConfig(sc, *seed)
		if *nodes > 0 {
			cfg.Nodes = *nodes
		}
		if *workers > 0 {
			cfg.Workers = *workers
		}
		if *queue > 0 {
			cfg.QueueDepth = *queue
		}
		if *duration > 0 {
			cfg.DurationMS = *duration
		}
		if *arrival > 0 {
			cfg.ArrivalEveryMS = *arrival
		}
		if *interval > 0 {
			cfg.StealInterval = time.Duration(*interval) * time.Millisecond
		}
		if *lease > 0 {
			cfg.Lease = time.Duration(*lease) * time.Millisecond
		}
		if *slow > 0 {
			cfg.SlowFactor = *slow
		}
		cfg.CrashNode = *crashN
		if *crashAt > 0 {
			cfg.CrashAtMS = *crashAt
		}
		if *probeFanout >= 0 {
			cfg.ProbeFanout = *probeFanout
		}
		if *probeTimeout > 0 {
			cfg.ProbeTimeout = time.Duration(*probeTimeout) * time.Millisecond
		}
		if *hintBreadth >= 0 {
			cfg.HintKeys = *hintBreadth
		}
		if *warmNodes >= 0 {
			cfg.WarmNodes = *warmNodes
		}

		if i > 0 {
			fmt.Fprintln(out)
		}
		if *sweep {
			results, err := clustersim.Sweep(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfplay sim:", err)
				return 1
			}
			fmt.Fprint(out, clustersim.RenderSweep(sc, *seed, results))
			continue
		}
		report, err := clustersim.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfplay sim:", err)
			return 1
		}
		fmt.Fprint(out, report.String())
	}
	return 0
}
