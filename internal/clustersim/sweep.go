package clustersim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Sweep knob grids. Small on purpose: the sweep is a ranking aid, not
// an optimizer — 6 deterministic runs an operator can eyeball.
var (
	sweepIntervals = []int64{100, 250, 500}
	sweepHints     = []bool{false, true}
)

// SweepResult is one grid point's knobs and outcome.
type SweepResult struct {
	StealIntervalMS int64
	HintSteals      bool
	Report          *Report
}

// Sweep grids steal interval × hint-driven stealing over one scenario
// and seed, returning results ranked best first: lowest p90 job
// latency, ties broken by makespan, then by grid order. Every grid
// point sees the byte-identical workload (the partitioned RNG pins
// arrivals and costs to the seed), so differences in the ranking are
// attributable to the knobs alone.
func Sweep(base Config) ([]SweepResult, error) {
	if err := base.validate(); err != nil {
		return nil, err
	}
	var out []SweepResult
	for _, iv := range sweepIntervals {
		for _, h := range sweepHints {
			cfg := base
			cfg.StealIntervalMS = iv
			cfg.HintSteals = h
			r, err := Run(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, SweepResult{iv, h, r})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Report, out[j].Report
		if a.LatencyP90 != b.LatencyP90 {
			return a.LatencyP90 < b.LatencyP90
		}
		return a.MakespanMS < b.MakespanMS
	})
	return out, nil
}

// Cache-layer sweep grids. Fan-out 0 is the no-probe baseline (sim
// semantics: probing disabled), so every ranking shows what the cache
// layer is worth against not having one.
var (
	cacheSweepFanouts  = []int{0, 1, 2, 4}
	cacheSweepTimeouts = []int64{50, 250, 2000}
	cacheSweepBreadths = []int{0, 16}
	cacheSweepHops     = []int{1, 3}
)

// CacheSweepResult is one cache-grid point's knobs and outcome.
type CacheSweepResult struct {
	ProbeFanout    int
	ProbeTimeoutMS int64
	HintBreadth    int
	MaxHops        int
	Report         *Report
}

// CacheSweep grids probe fan-out × probe timeout × hint breadth × max
// admission hops over one cache-layer scenario and seed — 48
// deterministic runs — returning results ranked best first: lowest p90
// job latency, ties broken by makespan, then by grid order. As with
// Sweep, every grid point sees the byte-identical workload, so the
// ranking is attributable to the knobs alone. Fan-out 0 rows never
// probe, anchoring what probing buys; with fan-out 0 the timeout knob
// is inert, but those rows still run so the grid stays rectangular and
// the renderer honest about it.
func CacheSweep(base Config) ([]CacheSweepResult, error) {
	if !base.CacheLayer {
		return nil, errors.New("cache sweep needs a cache-layer scenario (cachewarm, partition, admission)")
	}
	if err := base.validate(); err != nil {
		return nil, err
	}
	var out []CacheSweepResult
	for _, fo := range cacheSweepFanouts {
		for _, to := range cacheSweepTimeouts {
			for _, hb := range cacheSweepBreadths {
				for _, mh := range cacheSweepHops {
					cfg := base
					cfg.ProbeFanout = fo
					cfg.ProbeTimeoutMS = to
					cfg.HintBreadth = hb
					cfg.MaxHops = mh
					r, err := Run(cfg)
					if err != nil {
						return nil, err
					}
					out = append(out, CacheSweepResult{fo, to, hb, mh, r})
				}
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Report, out[j].Report
		if a.LatencyP90 != b.LatencyP90 {
			return a.LatencyP90 < b.LatencyP90
		}
		return a.MakespanMS < b.MakespanMS
	})
	return out, nil
}

// RenderCacheSweep renders ranked cache-sweep results as the
// fixed-width table the CLI prints (and docs/POLICIES.md records).
func RenderCacheSweep(scenario string, seed int64, rs []CacheSweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache policy sweep scenario=%s seed=%d (%d runs; best first by latency p90, then makespan)\n",
		scenario, seed, len(rs))
	fmt.Fprintf(&b, "%4s  %6s  %10s  %7s  %4s  %7s  %7s  %8s  %6s  %6s  %8s  %4s\n",
		"rank", "fanout", "timeout-ms", "breadth", "hops", "p50-ms", "p90-ms", "makespan", "r-hit", "t-imp", "timeouts", "adm")
	for i, r := range rs {
		c := r.Report.Cache
		fmt.Fprintf(&b, "%4d  %6d  %10d  %7d  %4d  %7d  %7d  %8d  %6d  %6d  %8d  %4d\n",
			i+1, r.ProbeFanout, r.ProbeTimeoutMS, r.HintBreadth, r.MaxHops,
			r.Report.LatencyP50, r.Report.LatencyP90, r.Report.MakespanMS,
			c.RemoteHits, c.TableImports, c.ProbeTimeouts, c.AdmissionHops)
	}
	return b.String()
}

// RenderSweep renders ranked sweep results as the fixed-width table
// the CLI prints (and docs/POLICIES.md records).
func RenderSweep(scenario string, seed int64, rs []SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy sweep scenario=%s seed=%d (%d runs; best first by latency p90, then makespan)\n",
		scenario, seed, len(rs))
	fmt.Fprintf(&b, "%4s  %12s  %5s  %7s  %7s  %8s  %6s  %6s  %9s\n",
		"rank", "steal-int-ms", "hints", "p50-ms", "p90-ms", "makespan", "claims", "hinted", "completed")
	for i, r := range rs {
		hints := "off"
		if r.HintSteals {
			hints = "on"
		}
		fmt.Fprintf(&b, "%4d  %12d  %5s  %7d  %7d  %8d  %6d  %6d  %9d\n",
			i+1, r.StealIntervalMS, hints,
			r.Report.LatencyP50, r.Report.LatencyP90, r.Report.MakespanMS,
			r.Report.Claims, r.Report.HintedClaims, r.Report.Completed)
	}
	return b.String()
}
