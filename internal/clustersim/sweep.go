package clustersim

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"perfplay/internal/jobs"
)

// Sweep knob grids, the same 72 points for every scenario. Fan-out 0
// (probing off) and breadth 0 (no cache hints) are baselines, not
// deployable settings — perfplayd refuses 0 for both — kept so every
// ranking shows what the cache layer is worth against not having one.
var (
	sweepIntervals = []time.Duration{100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond}
	sweepFanouts   = []int{0, 1, 2, 4}
	sweepTimeouts  = []time.Duration{50 * time.Millisecond, 250 * time.Millisecond, 2 * time.Second}
	sweepBreadths  = []int{0, 32}
)

// SweepResult is one grid point's knobs and outcome.
type SweepResult struct {
	Policy jobs.Policy
	Report *Report
}

// Sweep grids steal interval × probe fan-out × probe timeout × hint
// breadth over one scenario and seed, returning results ranked best
// first: lowest p90 job latency, ties broken by makespan, then by grid
// order. Every grid point sees the byte-identical workload (the
// partitioned RNG pins arrivals and costs to the seed), so differences
// in the ranking are attributable to the knobs alone. With fan-out 0
// the timeout knob is inert, but those rows still run so the grid stays
// rectangular.
func Sweep(base Config) ([]SweepResult, error) {
	if err := base.validate(); err != nil {
		return nil, err
	}
	var out []SweepResult
	for _, iv := range sweepIntervals {
		for _, fo := range sweepFanouts {
			for _, to := range sweepTimeouts {
				for _, hb := range sweepBreadths {
					cfg := base
					cfg.StealInterval = iv
					cfg.ProbeFanout = fo
					cfg.ProbeTimeout = to
					cfg.HintKeys = hb
					out = append(out, SweepResult{cfg.Policy, MustRun(cfg)})
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

// RenderSweep renders ranked sweep results as the fixed-width table the
// CLI prints (and docs/POLICIES.md records). The last column counts
// invariant violations, which must read 0 on every row.
func RenderSweep(scenario string, seed int64, rs []SweepResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy sweep scenario=%s seed=%d (%d runs; best first by latency p90, then makespan)\n",
		scenario, seed, len(rs))
	fmt.Fprintf(&b, "%4s  %8s  %6s  %10s  %7s  %6s  %6s  %8s  %6s  %5s  %5s  %5s  %8s  %4s\n",
		"rank", "steal-ms", "fanout", "timeout-ms", "breadth", "p50-ms", "p90-ms", "makespan",
		"claims", "l-hit", "r-hit", "t-imp", "timeouts", "viol")
	for i, r := range rs {
		c, p := r.Report.Cache, r.Policy
		fmt.Fprintf(&b, "%4d  %8d  %6d  %10d  %7d  %6d  %6d  %8d  %6d  %5d  %5d  %5d  %8d  %4d\n",
			i+1, p.StealInterval.Milliseconds(), p.ProbeFanout, p.ProbeTimeout.Milliseconds(), p.HintKeys,
			r.Report.LatencyP50, r.Report.LatencyP90, r.Report.MakespanMS, r.Report.Claims,
			c.LocalHits, c.RemoteHits, c.TableImports, c.ProbeTimeouts, len(r.Report.Violations))
	}
	return b.String()
}
