package clustersim

import (
	"fmt"
	"strings"
)

// NodeReport is one node's slice of the run.
type NodeReport struct {
	Node            string `json:"node"`
	CompletedLocal  int    `json:"completed_local"`
	CompletedStolen int    `json:"completed_stolen"`
	StolenFrom      int    `json:"stolen_from"` // leases this node granted
	LeasesExpired   int    `json:"leases_expired"`
	Probes          int    `json:"probes"`
	Claims          int    `json:"claims"`
	HintedClaims    int    `json:"hinted_claims"`
	WarmRuns        int    `json:"warm_runs"`
	DepthP50        int64  `json:"queue_depth_p50"`
	DepthP90        int64  `json:"queue_depth_p90"`
	DepthMax        int64  `json:"queue_depth_max"`
	Crashed         bool   `json:"crashed,omitempty"`
}

// Report is the deterministic outcome of one simulated run: every
// field derives from seeded draws and the event order, so the same
// config renders the same bytes.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	Jobs       int `json:"jobs"`
	Completed  int `json:"completed"`
	Rejected   int `json:"rejected"`
	Lost       int `json:"lost"`
	Unfinished int `json:"unfinished"`
	// Duplicates are executions whose lease expired before settle — the
	// job ran twice and only the re-run counted.
	Duplicates int `json:"duplicates"`
	// Orphans are stolen jobs finished after their owner crashed: work
	// done, result undeliverable.
	Orphans int `json:"orphans"`

	// Steal-protocol totals across all nodes.
	Claims        int `json:"claims"`
	HintedClaims  int `json:"hinted_claims"`
	LeasesExpired int `json:"leases_expired"`
	WarmRuns      int `json:"warm_runs"`

	LatencyP50 int64 `json:"latency_p50_ms"`
	LatencyP90 int64 `json:"latency_p90_ms"`
	LatencyP99 int64 `json:"latency_p99_ms"`
	LatencyMax int64 `json:"latency_max_ms"`
	// MakespanMS is when the last completion landed.
	MakespanMS int64 `json:"makespan_ms"`

	// Cache is the cache layer's activity. Its AdmissionHops are the
	// Retry-Peer redirects, rendered on the steals line too.
	Cache CacheReport `json:"cache"`
	// Violations are the invariant checker's findings. Always rendered
	// when non-empty — a shipped scenario producing any is a bug.
	Violations []string `json:"violations,omitempty"`

	Nodes []NodeReport `json:"nodes"`
}

// CacheReport totals the cluster cache layer's activity for one run.
type CacheReport struct {
	Probes        int `json:"probes"`
	RemoteHits    int `json:"remote_hits"`
	LocalHits     int `json:"local_hits"`
	TableImports  int `json:"table_imports"`
	ProbeTimeouts int `json:"probe_timeouts"`
	Degraded      int `json:"degraded_local"`
	AdmissionHops int `json:"admission_hops"`
}

// account books a job's terminal outcome, once: "completed" (with its
// latency), "rejected" at admission, or "lost" with a crashed node. A
// node's own completions arrive through its lifecycle's terminal hook.
func (c *Cluster) account(j *simJob, how string) {
	if j.done {
		return
	}
	j.done = true
	c.resolved++
	switch how {
	case "completed":
		c.latencies = append(c.latencies, c.now-j.arrival+j.penalty)
		c.lastCompleted = max(c.lastCompleted, c.now)
	case "rejected":
		c.rejected++
	case "lost":
		c.lostJobs++
	}
	c.inv.terminalOnce(j.id, how)
}

// report assembles the Report once the event loop stops.
func (c *Cluster) report() *Report {
	r := &Report{
		Scenario:   c.cfg.Scenario,
		Seed:       c.cfg.Seed,
		Jobs:       len(c.jobs),
		Rejected:   c.rejected,
		Lost:       c.lostJobs,
		Duplicates: c.duplicates,
		Orphans:    c.orphans,
		Completed:  len(c.latencies),
		Unfinished: len(c.jobs) - c.resolved,
		LatencyP50: percentile(c.latencies, 50),
		LatencyP90: percentile(c.latencies, 90),
		LatencyP99: percentile(c.latencies, 99),
		LatencyMax: percentile(c.latencies, 100),
		MakespanMS: c.lastCompleted,
		Cache:      c.cache,
	}
	for _, n := range c.nodes {
		m := n.life.Metrics
		nr := NodeReport{
			Node:            fmt.Sprintf("node-%d", n.idx),
			CompletedLocal:  n.completedLocal,
			CompletedStolen: n.completedStolen,
			StolenFrom:      int(m.LeasesGranted.Int()),
			LeasesExpired:   int(m.LeasesExpired.Int()),
			Probes:          int(m.StealProbes.Int()),
			Claims:          int(m.StealClaims.Int()),
			HintedClaims:    int(m.StealHintedClaims.Int()),
			WarmRuns:        n.warmRuns,
			DepthP50:        percentile(n.depthSamples, 50),
			DepthP90:        percentile(n.depthSamples, 90),
			DepthMax:        percentile(n.depthSamples, 100),
			Crashed:         n.crashed,
		}
		r.Claims += nr.Claims
		r.HintedClaims += nr.HintedClaims
		r.LeasesExpired += nr.LeasesExpired
		r.WarmRuns += nr.WarmRuns
		r.Nodes = append(r.Nodes, nr)
	}
	c.inv.finish(r)
	return r
}

// String renders the report as the fixed-layout text the CLI prints
// and the determinism smoke diffs. Integer-only formatting: nothing
// here depends on floating-point rendering.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster-sim scenario=%s seed=%d\n", r.Scenario, r.Seed)
	fmt.Fprintf(&b, "  jobs %d: completed=%d rejected=%d lost=%d unfinished=%d duplicates=%d orphans=%d\n",
		r.Jobs, r.Completed, r.Rejected, r.Lost, r.Unfinished, r.Duplicates, r.Orphans)
	fmt.Fprintf(&b, "  latency ms: p50=%d p90=%d p99=%d max=%d makespan=%d\n",
		r.LatencyP50, r.LatencyP90, r.LatencyP99, r.LatencyMax, r.MakespanMS)
	fmt.Fprintf(&b, "  steals: claims=%d hinted=%d lease-expired=%d redirects=%d warm-runs=%d\n",
		r.Claims, r.HintedClaims, r.LeasesExpired, r.Cache.AdmissionHops, r.WarmRuns)
	fmt.Fprintf(&b, "  cache: probes=%d remote-hits=%d local-hits=%d table-imports=%d timeouts=%d degraded=%d admission-hops=%d\n",
		r.Cache.Probes, r.Cache.RemoteHits, r.Cache.LocalHits, r.Cache.TableImports,
		r.Cache.ProbeTimeouts, r.Cache.Degraded, r.Cache.AdmissionHops)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  INVARIANT VIOLATION: %s\n", v)
	}
	for _, n := range r.Nodes {
		crashed := ""
		if n.Crashed {
			crashed = " CRASHED"
		}
		fmt.Fprintf(&b, "  %s: local=%d stolen-in=%d stolen-out=%d expired=%d probes=%d claims=%d hinted=%d warm=%d depth p50/p90/max=%d/%d/%d%s\n",
			n.Node, n.CompletedLocal, n.CompletedStolen, n.StolenFrom, n.LeasesExpired,
			n.Probes, n.Claims, n.HintedClaims, n.WarmRuns, n.DepthP50, n.DepthP90, n.DepthMax, crashed)
	}
	return b.String()
}
