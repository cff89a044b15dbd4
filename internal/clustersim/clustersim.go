// Package clustersim is the offline policy lab for perfplay's cluster
// scheduling: a discrete-event simulator that stands up N virtual
// perfplayd nodes and runs seeded workload scenarios through the code
// the daemon ships. Each node is an internal/jobs Node — admission and
// Retry-Peer, the start decision and its cache probes, leases, settle,
// finish and reap, and its Stealer; clients submit through
// jobs.FollowRedirects. Only the jobs.Peer (an in-memory fabric), the
// clock and the analysis run are simulated, so a knob that wins here
// exercises the exact code that ships. An invariant checker
// (invariants.go) rides every run and puts its findings on the report.
//
// Everything random flows from one scenario seed through a
// subsystem-partitioned RNG, time is simulated milliseconds on an event
// heap totally ordered by (timestamp, kind, sequence), and the report
// renders integers only — so a seed renders byte-identical output, and
// two sweeps differing in one knob see the identical workload.
package clustersim

import (
	"container/heap"
	"errors"
	"fmt"
	"reflect"
	"time"

	"perfplay/internal/jobs"
)

// Scenario names, selectable by Config.Scenario.
const (
	// ScenarioUniform spreads arrivals evenly — the no-stress baseline.
	ScenarioUniform = "uniform"
	// ScenarioSkewed aims most arrivals at node 0; the idle nodes must
	// pull the backlog over via the real steal path.
	ScenarioSkewed = "skewed"
	// ScenarioSlowNode spreads arrivals evenly but makes the last node
	// several times slower, so its backlog must migrate to fast nodes.
	ScenarioSlowNode = "slownode"
	// ScenarioCrash is skewed arrival plus one thief node dying
	// mid-run: its claimed leases must expire on the victims and the
	// jobs re-run to completion.
	ScenarioCrash = "crash"
	// ScenarioCacheWarm starts the cluster with a warm island: the
	// first WarmNodes nodes hold every digest's artifacts pre-computed,
	// arrivals aim at the cold nodes, and the cold nodes must find the
	// warm results through hint-gossiped cache probes (the real
	// jobs.Node cache probe over a virtual-clock jobs.Peer).
	ScenarioCacheWarm = "cachewarm"
	// ScenarioPartition is cachewarm plus a partial network partition:
	// for a window mid-run the warm island and the cold nodes cannot
	// reach each other directly, while the last node bridges both sides
	// — A sees B, B cannot see C. Probes across a severed link burn
	// their full timeout, so the probe-timeout knob earns its keep here.
	ScenarioPartition = "partition"
	// ScenarioAdmission aims nearly all arrivals at node 0 with a
	// shallow queue, so admission overflows and submits walk multi-hop
	// Retry-Peer chains — the real jobs.FollowRedirects, hop
	// bound and visited set included.
	ScenarioAdmission = "admission"
)

// Scenarios lists every shipped scenario in report order.
func Scenarios() []string {
	return []string{
		ScenarioUniform, ScenarioSkewed, ScenarioSlowNode, ScenarioCrash,
		ScenarioCacheWarm, ScenarioPartition, ScenarioAdmission,
	}
}

// Config parameterizes one simulated run. The zero value is unusable;
// start from DefaultConfig.
type Config struct {
	Scenario string
	Seed     int64
	// Policy is every node's scheduling knobs, perfplayd's own struct.
	// Unlike the daemon, a zero ProbeFanout turns probing off and a
	// zero HintKeys gossips no cache hints — the sweep's baselines. The
	// durations are read in whole simulated milliseconds.
	jobs.Policy
	// Nodes is the virtual cluster's size.
	Nodes int
	// DurationMS bounds the arrival window; the run itself continues
	// until the admitted backlog drains (or the hard cap trips).
	DurationMS int64
	// ArrivalEveryMS is the mean inter-arrival gap across the whole
	// cluster (exponential).
	ArrivalEveryMS int64
	// SlowFactor multiplies the slow node's run durations
	// (ScenarioSlowNode).
	SlowFactor int64
	// CrashNode / CrashAtMS pick the dying node (ScenarioCrash).
	// CrashNode < 0 self-targets: the first time on or after CrashAtMS
	// that any steal lease is outstanding, the thief holding the most
	// leases dies.
	CrashNode int
	CrashAtMS int64
	// DigestPool is how many distinct trace digests the workload draws
	// from — small pools make result-cache hits and cache hints matter.
	DigestPool int
	// WarmNodes pre-warms nodes [0, WarmNodes) with every pool digest's
	// result at t=0 (the warm island).
	WarmNodes int
	// PartitionAtMS / HealAtMS bound the partial-partition window
	// (ScenarioPartition): from PartitionAtMS until HealAtMS the warm
	// island and the cold nodes cannot reach each other except through
	// the bridge (the last node).
	PartitionAtMS int64
	HealAtMS      int64
}

// departure is one knob a scenario's nodes run at a value other than
// jobs.Defaults(): Knob names a jobs.Policy field, Value is of its type.
type departure struct {
	Scenario string // "" = every scenario
	Knob     string
	Value    any
}

// departures is every way the lab's node differs from the node
// perfplayd runs, applied in order by DefaultConfig (docs/POLICIES.md
// renders them per scenario). Everything else is jobs.Defaults().
var departures = []departure{
	// A minute of arrivals at 10/s on four 2-worker nodes never fills a
	// queue of 64: nothing would overflow into a Retry-Peer.
	{"", "QueueDepth", 8},
	// The cadence every sweep has ranked from; ROADMAP's open cadence
	// item sweeps the daemon's 1 s before either value moves.
	{"", "StealInterval", 250 * time.Millisecond},
	// A crashed thief's leases must expire, and their jobs re-run,
	// inside the run rather than two minutes after it.
	{"", "Lease", 2 * time.Second},
	// Shallow queues force multi-hop Retry-Peer chains.
	{ScenarioAdmission, "QueueDepth", 4},
}

// DefaultConfig returns the baseline lab cluster for a scenario: four
// perfplayd nodes — jobs.Defaults() but for the scenario's departures —
// under a minute of moderate load.
//
// The steal scenarios (uniform, skewed, slownode, crash) draw from
// 1,024 digests, so most jobs miss every result cache and run: the
// backlog stays something to steal. The crash scenario arrives hotter:
// the point is to kill a thief mid-steal, which needs the thieves
// saturated with stolen work when the clock hits CrashAtMS.
//
// The cache scenarios draw from 64 digests, sized to the run (~600
// arrivals): repeats are common enough for caching to matter, but a
// cold node keeps discovering new digests for most of the run —
// coupon-collector pacing — so probe traffic stays alive through the
// partition window instead of converging in the first few seconds.
func DefaultConfig(scenario string, seed int64) Config {
	cfg := Config{
		Scenario:       scenario,
		Seed:           seed,
		Policy:         jobs.Defaults(),
		Nodes:          4,
		DurationMS:     60_000,
		ArrivalEveryMS: 100,
		SlowFactor:     4,
		CrashNode:      -1,
		CrashAtMS:      10_000,
		DigestPool:     1024,
	}
	for _, d := range departures {
		if d.Scenario == "" || d.Scenario == scenario {
			reflect.ValueOf(&cfg.Policy).Elem().FieldByName(d.Knob).Set(reflect.ValueOf(d.Value))
		}
	}
	switch scenario {
	case ScenarioCrash:
		cfg.ArrivalEveryMS = 60
	case ScenarioPartition:
		cfg.PartitionAtMS = 10_000
		cfg.HealAtMS = 40_000
		fallthrough
	case ScenarioCacheWarm:
		cfg.DigestPool = 64
		cfg.WarmNodes = 2
	case ScenarioAdmission:
		// No warm island: the point is organic cache build-up under
		// admission pressure.
		cfg.DigestPool = 64
		cfg.ArrivalEveryMS = 60
	}
	return cfg
}

// validate rejects configs the engine cannot run honestly.
func (cfg Config) validate() error {
	switch cfg.Scenario {
	case ScenarioUniform, ScenarioSkewed, ScenarioSlowNode, ScenarioCrash,
		ScenarioCacheWarm, ScenarioPartition, ScenarioAdmission:
	default:
		return fmt.Errorf("unknown scenario %q (want one of %v)", cfg.Scenario, Scenarios())
	}
	if cfg.Nodes < 2 {
		return errors.New("need at least 2 nodes: with one node there is nothing to steal from")
	}
	if cfg.Workers < 1 || cfg.QueueDepth < 1 {
		return errors.New("workers and queue depth must be positive")
	}
	if cfg.DurationMS < 1 || cfg.ArrivalEveryMS < 1 || cfg.StealInterval < time.Millisecond || cfg.Lease < time.Millisecond {
		return errors.New("durations must be positive")
	}
	if cfg.Scenario == ScenarioCrash && cfg.CrashNode >= cfg.Nodes {
		return fmt.Errorf("crash node %d out of range [0,%d) (negative = auto-target)", cfg.CrashNode, cfg.Nodes)
	}
	if cfg.ProbeFanout < 0 || cfg.HintKeys < 0 {
		return errors.New("cache knobs must be non-negative")
	}
	if cfg.ProbeFanout > 0 && cfg.ProbeTimeout < time.Millisecond {
		return errors.New("probe timeout must be positive when probing is on")
	}
	if cfg.WarmNodes < 0 || cfg.WarmNodes > cfg.Nodes {
		return fmt.Errorf("warm nodes %d out of range [0,%d]", cfg.WarmNodes, cfg.Nodes)
	}
	if cfg.Scenario == ScenarioPartition && cfg.PartitionAtMS >= cfg.HealAtMS {
		return errors.New("partition window must open before it heals")
	}
	return nil
}

// Run executes one seeded scenario to completion and returns its
// report. Same config (including seed) → byte-identical report.
func Run(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newCluster(cfg).run(), nil
}

// run draws the workload, drives the event loop and reports.
func (c *Cluster) run() *Report {
	c.generateWorkload()
	c.scheduleHousekeeping()
	// Hard cap: a pathological policy (leases never expiring, a crash
	// stranding the whole backlog) must terminate with an honest
	// "unfinished" count rather than spin the heap forever.
	hardCap := c.cfg.DurationMS*20 + 10*c.cfg.Lease.Milliseconds()
	for c.events.Len() > 0 && !c.drained() {
		ev := heap.Pop(&c.events).(*event)
		if ev.at > hardCap {
			break
		}
		c.now = ev.at
		ev.fn()
	}
	return c.report()
}

// MustRun is Run for callers whose config is known valid (tests, the
// sweep grid).
func MustRun(cfg Config) *Report {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
