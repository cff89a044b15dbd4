package clustersim

import (
	"strings"
	"testing"
	"time"

	"perfplay/internal/jobs"
)

// requireClean fails the test if the invariant checker flagged anything
// — every shipped scenario must run violation-free.
func requireClean(t *testing.T, r *Report) {
	t.Helper()
	if len(r.Violations) != 0 {
		t.Fatalf("invariant violations:\n%s", strings.Join(r.Violations, "\n"))
	}
}

// TestCacheWarmProbesSettleJobs: the warm island's results must reach
// the cold nodes through the node's real cache probe — remote hits for
// cached results, table imports (and so warm runs) for digests whose
// results the island's LRU already evicted — and the run must stay
// invariant-clean.
func TestCacheWarmProbesSettleJobs(t *testing.T) {
	r := MustRun(short(ScenarioCacheWarm, 42))
	requireClean(t, r)
	if r.Cache.RemoteHits == 0 {
		t.Fatalf("no job settled from a peer's result cache:\n%s", r)
	}
	if r.Cache.TableImports == 0 || r.WarmRuns == 0 {
		t.Fatalf("the two-tier miss path (table import → warm run) never fired:\n%s", r)
	}
	if r.Unfinished != 0 {
		t.Fatalf("cache scenario stranded %d jobs:\n%s", r.Unfinished, r)
	}
}

// TestCacheProbingBeatsNoProbing is the lab's reason to exist: on the
// same seeded workload, probing (scenario default) must beat fan-out 0
// (probing disabled) on p90 latency — the cold nodes either fetch the
// warm island's results or re-run everything from scratch.
func TestCacheProbingBeatsNoProbing(t *testing.T) {
	on := MustRun(short(ScenarioCacheWarm, 42))
	offCfg := short(ScenarioCacheWarm, 42)
	offCfg.ProbeFanout = 0
	off := MustRun(offCfg)
	requireClean(t, off)
	if off.Cache.Probes != 0 {
		t.Fatalf("fan-out 0 still probed %d times", off.Cache.Probes)
	}
	if on.LatencyP90 >= off.LatencyP90 {
		t.Fatalf("probing p90=%d not better than no-probing p90=%d", on.LatencyP90, off.LatencyP90)
	}
}

// TestPartitionBurnsTimeoutsThenHeals: during the partition window,
// probes across severed links must burn the probe timeout (the knob's
// whole cost model), no artifact may be delivered across a severed
// link (invariant), and the run must still drain — partition costs
// latency, never correctness.
func TestPartitionBurnsTimeoutsThenHeals(t *testing.T) {
	cfg := short(ScenarioPartition, 42)
	// The short run ends arrivals at 15s; open the partition early so
	// plenty of probe traffic crosses the window.
	cfg.PartitionAtMS = 3_000
	cfg.HealAtMS = 12_000
	r := MustRun(cfg)
	requireClean(t, r)
	if r.Cache.ProbeTimeouts == 0 {
		t.Fatalf("partition window burned no probe timeouts:\n%s", r)
	}
	if r.Unfinished != 0 {
		t.Fatalf("partition stranded %d jobs:\n%s", r.Unfinished, r)
	}
}

// TestAdmissionWalksMultiHopChains: with near-total skew over a
// shallow queue, admission must follow Retry-Peer chains (the real
// jobs.FollowRedirects), and the chain bound must hold — the
// invariant checker independently recounts every chain.
func TestAdmissionWalksMultiHopChains(t *testing.T) {
	r := MustRun(short(ScenarioAdmission, 42))
	requireClean(t, r)
	if r.Cache.AdmissionHops == 0 {
		t.Fatalf("admission pressure produced no Retry-Peer hops:\n%s", r)
	}
}

// TestHintBreadthMatters: cache hints are how a probe finds the right
// peer without brute force. With hints off, the same workload at the
// same fan-out must hit strictly less often or probe strictly more.
func TestHintBreadthMatters(t *testing.T) {
	withHints := MustRun(short(ScenarioAdmission, 42))
	cfg := short(ScenarioAdmission, 42)
	cfg.HintKeys = 0
	noHints := MustRun(cfg)
	requireClean(t, noHints)
	if noHints.Cache.RemoteHits >= withHints.Cache.RemoteHits {
		t.Fatalf("hints off remote-hits=%d >= hints on remote-hits=%d",
			noHints.Cache.RemoteHits, withHints.Cache.RemoteHits)
	}
}

// TestEveryScenarioRunsTheShippedNode: there is one node model, the
// perfplayd that ships. Every scenario renders the cache line, admits
// every arrival through the recounted FollowRedirects chain (that it
// runs the daemon's knobs is TestDeparturesAreDeclared); the steal
// scenarios still steal, and most of their jobs still run rather than
// settle from a cache.
func TestEveryScenarioRunsTheShippedNode(t *testing.T) {
	steal := map[string]bool{ScenarioUniform: true, ScenarioSkewed: true, ScenarioSlowNode: true, ScenarioCrash: true}
	for _, sc := range Scenarios() {
		c := newCluster(short(sc, 42))
		r := c.run()
		requireClean(t, r)
		if !strings.Contains(r.String(), "\n  cache: probes=") {
			t.Errorf("%s: report renders no cache line:\n%s", sc, r)
		}
		if c.inv.chains != r.Jobs {
			t.Errorf("%s: %d admission chains recounted, want one per job (%d)", sc, c.inv.chains, r.Jobs)
		}
		if !steal[sc] {
			continue
		}
		if r.Claims == 0 {
			t.Errorf("%s: steal scenario produced zero claims:\n%s", sc, r)
		}
		if settled := r.Cache.LocalHits + r.Cache.RemoteHits; 2*settled >= r.Completed {
			t.Errorf("%s: %d of %d jobs settled from a cache — no longer steal-bound", sc, settled, r.Completed)
		}
	}
}

// TestSweepRanksAndCovers: the sweep must run its full rectangular grid
// on any scenario, rank by p90 then makespan, keep the fan-out 0 and
// breadth 0 baselines, and stay invariant-clean on every row.
func TestSweepRanksAndCovers(t *testing.T) {
	for _, sc := range []string{ScenarioSkewed, ScenarioCacheWarm} {
		cfg := short(sc, 42)
		cfg.DurationMS = 4_000
		rs, err := Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != 72 {
			t.Fatalf("%s: sweep ran %d grid points, want 72", sc, len(rs))
		}
		seen := make(map[jobs.Policy]bool)
		for i, r := range rs {
			seen[r.Policy] = true
			requireClean(t, r.Report)
			if i == 0 {
				continue
			}
			a, b := rs[i-1].Report, r.Report
			if a.LatencyP90 > b.LatencyP90 || a.LatencyP90 == b.LatencyP90 && a.MakespanMS > b.MakespanMS {
				t.Fatalf("%s: rank %d (p90=%d makespan=%d) worse than rank %d (p90=%d makespan=%d)",
					sc, i, a.LatencyP90, a.MakespanMS, i+1, b.LatencyP90, b.MakespanMS)
			}
			if r.Policy.ProbeFanout == 0 && r.Report.Cache.Probes != 0 {
				t.Fatalf("%s: fan-out 0 baseline probed %d times", sc, r.Report.Cache.Probes)
			}
		}
		if len(seen) != 72 {
			t.Fatalf("%s: sweep covered %d distinct grid points, want 72", sc, len(seen))
		}
		at := func(fo, hb int) jobs.Policy {
			p := cfg.Policy
			p.StealInterval, p.ProbeTimeout, p.ProbeFanout, p.HintKeys = 250*time.Millisecond, 250*time.Millisecond, fo, hb
			return p
		}
		if !seen[at(0, 0)] || !seen[at(0, 32)] || !seen[at(2, 0)] {
			t.Fatalf("%s: sweep grid lost its fan-out 0 / breadth 0 baselines", sc)
		}
		out := RenderSweep(sc, 42, rs)
		for _, col := range []string{"steal-ms", "fanout", "timeout-ms", "breadth", "claims", "viol"} {
			if !strings.Contains(out, col) {
				t.Fatalf("%s: sweep table missing the %s column:\n%s", sc, col, out)
			}
		}
	}
}

// --- invariant checker self-tests: a checker that cannot fail checks
// nothing. Feed it each violation class directly and watch it flag. ---

func invHarness() (*Cluster, *invariants) {
	c := newCluster(DefaultConfig(ScenarioCacheWarm, 1))
	return c, c.inv
}

func TestInvariantDoubleSettleFires(t *testing.T) {
	_, inv := invHarness()
	inv.terminalOnce("job-1", "completed")
	inv.terminalOnce("job-1", "rejected")
	if len(inv.violations) != 1 || !strings.Contains(inv.violations[0], "settled twice") {
		t.Fatalf("double settle not flagged: %v", inv.violations)
	}
}

func TestInvariantUnsourcedServeFires(t *testing.T) {
	c, inv := invHarness()
	cold := c.nodes[len(c.nodes)-1]
	inv.served("result", cold, c.nodes[0], "sha256:never|sim")
	if len(inv.violations) != 1 || !strings.Contains(inv.violations[0], "never computed or imported") {
		t.Fatalf("unsourced serve not flagged: %v", inv.violations)
	}
	// After a legitimate import, the same serve is clean.
	inv.importedResult(cold, "sha256:never|sim")
	inv.served("result", cold, c.nodes[0], "sha256:never|sim")
	if len(inv.violations) != 1 {
		t.Fatalf("legitimate serve flagged: %v", inv.violations)
	}
}

func TestInvariantPartitionedServeFires(t *testing.T) {
	cfg := DefaultConfig(ScenarioPartition, 1)
	c := newCluster(cfg)
	c.now = cfg.PartitionAtMS + 1 // inside the window
	warm, cold := c.nodes[0], c.nodes[cfg.WarmNodes]
	key := resultKey(digestPool(cfg.DigestPool)[0])
	c.inv.served("result", warm, cold, key)
	if len(c.inv.violations) != 1 || !strings.Contains(c.inv.violations[0], "partitioned link") {
		t.Fatalf("cross-partition delivery not flagged: %v", c.inv.violations)
	}
	// The bridge (last node) still reaches both sides.
	c.inv.served("result", warm, c.nodes[cfg.Nodes-1], key)
	if len(c.inv.violations) != 1 {
		t.Fatalf("bridge delivery flagged: %v", c.inv.violations)
	}
}

func TestInvariantProbeBoundFires(t *testing.T) {
	_, inv := invHarness()
	inv.probeBound(3, 1, 2)
	if len(inv.violations) != 1 || !strings.Contains(inv.violations[0], "fan-out") {
		t.Fatalf("over-fan-out probe not flagged: %v", inv.violations)
	}
	inv.probeBound(2, 2, 2) // at the bound is legal
	if len(inv.violations) != 1 {
		t.Fatalf("at-bound probe flagged: %v", inv.violations)
	}
}

func TestInvariantWorkerBoundFires(t *testing.T) {
	c, inv := invHarness()
	for i := 0; i < c.cfg.Workers; i++ {
		inv.jobStarted(c.nodes[0])
	}
	inv.jobStarted(c.nodes[1]) // another node's run is not this node's
	if len(inv.violations) != 0 {
		t.Fatalf("a full node flagged: %v", inv.violations)
	}
	inv.jobStarted(c.nodes[0])
	if len(inv.violations) != 1 || !strings.Contains(inv.violations[0], "jobs at once") {
		t.Fatalf("over-subscribed node not flagged: %v", inv.violations)
	}
}

func TestInvariantChainChecksFire(t *testing.T) {
	_, inv := invHarness()
	cc := inv.chain("job-1")
	cc.visit("sim://node-0", 1)
	cc.visit("sim://node-1", 1)
	cc.visit("sim://node-0", 1) // revisit AND over the bound
	found := strings.Join(inv.violations, "\n")
	if !strings.Contains(found, "revisited") || !strings.Contains(found, "bound is 2") {
		t.Fatalf("chain violations not flagged: %v", inv.violations)
	}
}

func TestInvariantAccountingIdentityFires(t *testing.T) {
	c, inv := invHarness()
	r := &Report{Jobs: 5, Completed: 2, Rejected: 1, Unfinished: 1} // one job leaked
	inv.finish(r)
	if len(r.Violations) == 0 || !strings.Contains(r.Violations[0], "accounting identity") {
		t.Fatalf("broken accounting not flagged: %v", r.Violations)
	}
	_ = c
}
