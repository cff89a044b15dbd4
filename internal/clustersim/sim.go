package clustersim

import (
	"fmt"
	"strings"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/jobs"
)

// epoch anchors simulated time: node clocks read epoch + now·1ms.
var epoch = time.Unix(0, 0).UTC()

// warmRunDivisor is how much cheaper a job runs on a node that holds
// its trace's verdict table: the reversed replays are skipped.
const warmRunDivisor = 4

// traceFetchDivisor sizes a cold thief's trace download from the victim
// (GET /traces/{digest}): job cost / traceFetchDivisor. A warm thief
// skips it.
const traceFetchDivisor = 3

// simJob is one generated workload unit (jobs.Job.Local on the node
// that holds it).
type simJob struct {
	id      string
	digest  string
	arrival int64 // submitted at (sim ms)
	total   int64 // ms of cold work on a nominal-speed worker
	done    bool  // completed (or orphaned) — resolved for accounting
	// penalty is latency charged outside the event clock: the link time
	// a multi-hop admission chain spent before the job landed anywhere.
	penalty int64
}

// activeJob is a job a node has started: waiting for a worker, running
// whole on one, or (cached) about to settle from a result cache, with
// no worker. pre is the missed probe round, charged on top of the run;
// victim is the node it was stolen from (nil for local jobs).
type activeJob struct {
	job                   *simJob
	running, warm, cached bool
	pre                   int64
	victim                *node
	release               func() // hands the worker back
}

// lifecycle is one virtual perfplayd's job table: the daemon's own
// jobs.Node, its artifacts being the cache keys themselves.
type lifecycle = jobs.Node[string, string]

// node is one virtual perfplayd: the shipped job lifecycle and stealer
// plus the simulation-only worker and cache model around them.
type node struct {
	c   *Cluster
	idx int
	url string

	life    *lifecycle
	stealer *jobs.Stealer[string, string]

	freeWorkers int
	// pendingStolen reserves workers for claims still in flight over
	// the link, so the greedy steal loop cannot over-claim.
	pendingStolen int
	active        []*activeJob
	// cache holds the digests whose trace artifacts and verdict table
	// this node holds.
	cache map[string]bool
	// results is the node's result cache: result keys it computed or
	// imported, servable to probing peers. recent is the MRU tail of
	// those keys, gossiped as cache hints.
	results map[string]bool
	recent  []string
	speed   int64 // run-duration multiplier (1 = nominal)
	crashed bool

	// Simulation-side stats.
	completedLocal  int
	completedStolen int
	warmRuns        int
	depthSamples    []int64
}

// idle is the stealer's idle test: spare capacity not already promised
// to an in-flight claim.
func (n *node) idle() bool {
	return !n.crashed && n.freeWorkers-n.pendingStolen > 0
}

// addResult records a result key in the node's cache and its MRU hint
// tail.
func (n *node) addResult(key string) {
	if n.results[key] {
		return
	}
	n.results[key] = true
	n.recent = append(n.recent, key)
}

// recentKeys returns the newest k result keys — the cache-population
// hints this node gossips in probe responses.
func (n *node) recentKeys(k int) []string {
	if k <= 0 || len(n.recent) == 0 {
		return nil
	}
	if len(n.recent) > k {
		return n.recent[len(n.recent)-k:]
	}
	return n.recent
}

// HasResult, HasTable, HasCached and ImportTable make the node's cache
// model the lifecycle's jobs.Cache. Imported tables cannot be corrupt
// here.
func (n *node) HasResult(key string) bool    { return n.results[key] }
func (n *node) HasTable(key string) bool     { return n.cache[tableDigest(key)] }
func (n *node) HasCached(digest string) bool { return n.cache[digest] }

func (n *node) ImportTable(key, _ string) bool {
	digest := tableDigest(key)
	n.c.cache.TableImports++
	n.cache[digest] = true
	n.c.inv.importedTable(n, digest)
	return true
}

// resultKey and tableKey name the cached artifacts for a trace digest,
// shaped like the daemon's cache keys: the result key has the digest as
// its first "|"-separated segment, so clusterapi.PeerStatus.HintsKey
// matches it exactly and HintsDigest matches it by digest prefix.
func resultKey(digest string) string { return digest + "|sim" }
func tableKey(digest string) string  { return digest + "|table" }

// tableDigest recovers the trace digest from a table key.
func tableDigest(key string) string {
	digest, _, _ := strings.Cut(key, "|")
	return digest
}

// Cluster is one simulation in progress.
type Cluster struct {
	cfg    Config
	rng    *PartitionedRNG
	events eventHeap
	seq    int64
	now    int64

	nodes []*node
	jobs  []*simJob

	resolved  int // jobs done, lost, or orphaned — never coming back
	latencies []int64

	// Cluster-wide counters (per-node ones live on node / its lifecycle's
	// Metrics).
	rejected      int
	duplicates    int
	orphans       int
	lostJobs      int
	lastCompleted int64

	// inv is the always-on invariant checker; its violations land on
	// the report (and must be empty for every shipped scenario).
	inv *invariants
	// cache totals the cache layer's activity, filled in place.
	cache CacheReport
}

func newCluster(cfg Config) *Cluster {
	c := &Cluster{cfg: cfg, rng: NewPartitionedRNG(cfg.Seed)}
	c.inv = newInvariants(c)
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &node{
			c:           c,
			idx:         i,
			url:         fmt.Sprintf("sim://node-%d", i),
			freeWorkers: cfg.Workers,
			cache:       make(map[string]bool),
			results:     make(map[string]bool),
			speed:       1,
		})
	}
	if cfg.Scenario == ScenarioSlowNode {
		c.nodes[cfg.Nodes-1].speed = cfg.SlowFactor
	}
	// Pre-warm the warm island: nodes [0, WarmNodes) hold every digest's
	// verdict table but, their LRU result cache having aged, results for
	// only half the pool — so some probes miss on results, fall through
	// to the table probe, and the cold node runs warm.
	for _, n := range c.nodes[:cfg.WarmNodes] {
		for di, digest := range digestPool(cfg.DigestPool) {
			n.cache[digest] = true
			if di%2 == 0 {
				n.addResult(resultKey(digest))
				c.inv.computedResult(n, resultKey(digest), digest)
			} else {
				c.inv.importedTable(n, digest)
			}
		}
	}
	for _, n := range c.nodes {
		n.life = c.newLifecycle(n)
		n.stealer = c.newStealer(n)
	}
	return c
}

// newLifecycle builds n's job table the way perfplayd's NewServer does,
// on the simulated clock and fabric. The node's terminal and worker
// hooks feed the report's ledger and the invariant checker.
func (c *Cluster) newLifecycle(n *node) *lifecycle {
	return jobs.New(jobs.Config[string, string]{
		Policy: c.cfg.Policy,
		Peers:  c.peersOf(n),
		Local:  n,
		Peer:   &simPeer{c: c, from: n},
		Now:    c.clock,
		Hooks: jobs.Hooks{
			Finished: func(j *jobs.Job) {
				how := "completed"
				if j.Status == jobs.Failed {
					how = "lost"
				}
				c.account(j.Local.(*simJob), how)
			},
			Occupied: func(_ string, busy bool) {
				if busy {
					c.inv.jobStarted(n)
				} else {
					c.inv.jobStopped(n)
				}
			},
		},
	})
}

// linkUp reports whether a and b can reach each other. Only the
// partition scenario's window cuts links: the warm island and the cold
// nodes cannot reach each other, but both reach the last node, the
// bridge — so a cold node can hear of a warm cache it cannot reach.
func (c *Cluster) linkUp(a, b *node) bool {
	if a == nil || b == nil || a == b {
		return true
	}
	if c.cfg.Scenario != ScenarioPartition || c.now < c.cfg.PartitionAtMS || c.now >= c.cfg.HealAtMS {
		return true
	}
	bridge := c.cfg.Nodes - 1
	if a.idx == bridge || b.idx == bridge {
		return true
	}
	return (a.idx < c.cfg.WarmNodes) == (b.idx < c.cfg.WarmNodes)
}

// clock renders simulated time for the lifecycle and its gossip view.
func (c *Cluster) clock() time.Time {
	return epoch.Add(time.Duration(c.now) * time.Millisecond)
}

// peersOf lists every other node's URL, in index order (the stealer
// probes in this order, so it is part of the deterministic tie-break).
func (c *Cluster) peersOf(n *node) []string {
	peers := make([]string, 0, len(c.nodes)-1)
	for _, p := range c.nodes {
		if p != n {
			peers = append(peers, p.url)
		}
	}
	return peers
}

// byURL resolves a peer URL to its node (nil: no such node).
func (c *Cluster) byURL(url string) *node {
	for _, n := range c.nodes {
		if n.url == url {
			return n
		}
	}
	return nil
}

// latencyMS draws one link delay from the latency stream.
func (c *Cluster) latencyMS() int64 {
	return 1 + c.rng.Stream("latency").Int64N(4)
}

// newStealer builds n's thief loop as perfplayd's StartStealer does.
// The daemon executes inside the steal loop; here the claim reserves a
// worker and the job lands after the link delay. Failures surface as
// expired leases on the victim.
func (c *Cluster) newStealer(n *node) *jobs.Stealer[string, string] {
	return n.life.NewStealer(n.url, &simPeer{c: c, from: n}, n.idle, func(victim string, sj clusterapi.StolenJob) error {
		var job *simJob
		v := c.byURL(victim)
		if v == nil || !v.life.With(sj.ID, func(j *jobs.Job) { job = j.Local.(*simJob) }) {
			return fmt.Errorf("claimed unknown job %q from %q", sj.ID, victim)
		}
		n.pendingStolen++
		delay := c.latencyMS()
		if !n.cache[job.digest] {
			delay += job.total / traceFetchDivisor
		}
		c.schedule(c.now+delay, kindStolenStart, func() {
			n.pendingStolen--
			if n.crashed {
				return // the claim dies with the thief; the victim's lease recovers it
			}
			c.begin(n, job, v)
			c.assign(n)
		})
		return nil
	})
}

// simPeer is node from's jobs.Peer, the counterpart of the daemon's
// peerclient.Client. Probe, Claim and Settle are the calls perfplayd's
// GET /steal, POST /jobs/claim and POST /jobs/{id}/result handlers make
// on the victim's lifecycle. The fetches are one job's cache probe
// session: elapsed accumulates their virtual cost, one latency draw per
// healthy peer, 1 ms per refusal, the full timeout per blackholed link.
// The artifacts are the cache keys themselves.
type simPeer struct {
	c       *Cluster
	from    *node
	elapsed int64
	// Fetches per round, for the fan-out invariant.
	resultCalls int
	tableCalls  int
}

// dial resolves peer as seen from from: a crashed or unknown node
// refuses (refused), a partitioned link is unreachable (!refused).
func (c *Cluster) dial(from *node, peer string) (n *node, refused bool, err error) {
	n = c.byURL(peer)
	if n == nil || n.crashed {
		return nil, true, fmt.Errorf("dial %s: connection refused", peer)
	}
	if !c.linkUp(from, n) {
		return nil, false, fmt.Errorf("dial %s: network unreachable (partitioned)", peer)
	}
	return n, false, nil
}

func (t *simPeer) lookup(peer string) (*node, error) {
	n, _, err := t.c.dial(t.from, peer)
	return n, err
}

func (t *simPeer) Probe(peer string) (clusterapi.PeerStatus, error) {
	v, err := t.lookup(peer)
	if err != nil {
		return clusterapi.PeerStatus{}, err
	}
	return v.life.Status(v.recentKeys(t.c.cfg.HintKeys)), nil
}

func (t *simPeer) Claim(peer, thief string) (clusterapi.StolenJob, bool, error) {
	v, err := t.lookup(peer)
	if err != nil {
		return clusterapi.StolenJob{}, false, err
	}
	j, _, ok := v.life.Claim(thief)
	if !ok {
		return clusterapi.StolenJob{}, false, nil
	}
	return clusterapi.StolenJob{ID: j.ID, Spec: j.Spec, LeaseMS: t.c.cfg.Lease.Milliseconds()}, true, nil
}

func (t *simPeer) Settle(victim, jobID string, res clusterapi.StealResult) error {
	v, err := t.lookup(victim)
	if err != nil {
		return err
	}
	_, err = v.life.Settle(jobID, res.Thief, core.Rendered{}, res.Error)
	return err
}

// cacheLatencyMS draws one cache-probe round trip. Its own stream, so
// probe traffic does not perturb the steal path's latency draws.
func (c *Cluster) cacheLatencyMS() int64 {
	return 1 + c.rng.Stream("cachelat").Int64N(4)
}

// fetch resolves one probe's target and charges its virtual cost.
func (t *simPeer) fetch(peer string) (*node, error) {
	t.c.cache.Probes++
	target, refused, err := t.c.dial(t.from, peer)
	if refused {
		t.elapsed++ // refused connections fail fast
		return nil, err
	}
	if err != nil { // a blackholed link burns the whole timeout
		t.elapsed += t.c.cfg.ProbeTimeout.Milliseconds()
		t.c.cache.ProbeTimeouts++
		return nil, err
	}
	rtt := t.c.cacheLatencyMS()
	if rtt > t.c.cfg.ProbeTimeout.Milliseconds() {
		t.elapsed += t.c.cfg.ProbeTimeout.Milliseconds()
		t.c.cache.ProbeTimeouts++
		return nil, fmt.Errorf("probe %s: timeout", peer)
	}
	t.elapsed += rtt
	return target, nil
}

func (t *simPeer) FetchResult(peer, key string, topK int) (string, error) {
	t.resultCalls++
	target, err := t.fetch(peer)
	if err != nil {
		return "", err
	}
	if !target.results[key] {
		return "", fmt.Errorf("result %s: miss on %s", key, peer)
	}
	t.c.inv.served("result", target, t.from, key)
	return key, nil
}

func (t *simPeer) FetchTable(peer, key string) (string, error) {
	t.tableCalls++
	target, err := t.fetch(peer)
	if err != nil {
		return "", err
	}
	// Computing a result builds the table; importing one adopts it.
	digest := tableDigest(key)
	if !target.cache[digest] {
		return "", fmt.Errorf("table %s: miss on %s", key, peer)
	}
	t.c.inv.served("table", target, t.from, digest)
	return key, nil
}

// generateWorkload pre-draws every arrival from the partitioned streams
// and schedules them, so no policy knob can perturb which jobs exist.
func (c *Cluster) generateWorkload() {
	arr := c.rng.Stream("arrival")
	cost := c.rng.Stream("cost")
	digests := digestPool(c.cfg.DigestPool)
	var t int64
	for idx := 0; ; idx++ {
		t += expMS(arr, c.cfg.ArrivalEveryMS)
		if t >= c.cfg.DurationMS {
			break
		}
		origin := c.pickOrigin(arr.Float64(), arr.IntN(c.cfg.Nodes))
		// Mean job ≈ 10.5 lock groups × ~35ms ≈ 360ms of cold work: a
		// skewed-at node is oversubscribed several workers deep.
		var total int64
		for g := 6 + cost.IntN(10); g > 0; g-- {
			total += 10 + cost.Int64N(50)
		}
		j := &simJob{
			id:      fmt.Sprintf("job-%05d", idx),
			digest:  digests[cost.IntN(len(digests))],
			arrival: t,
			total:   total,
		}
		c.jobs = append(c.jobs, j)
		c.schedule(j.arrival, kindArrival, func() { c.submit(j, c.nodes[origin]) })
	}
}

// digestPool names the workload's distinct trace digests.
func digestPool(n int) []string {
	digests := make([]string, n)
	for i := range digests {
		digests[i] = fmt.Sprintf("sha256:sim%04d", i)
	}
	return digests
}

// pickOrigin maps one uniform draw (plus a pre-drawn uniform node) to
// the scenario's arrival skew. Both values are always drawn so the
// arrival stream advances identically across scenarios.
func (c *Cluster) pickOrigin(f float64, uniform int) int {
	switch c.cfg.Scenario {
	case ScenarioSkewed:
		// 80% of submissions hit node 0; the rest spread over the others.
		if f < 0.8 {
			return 0
		}
		return 1 + uniform%(c.cfg.Nodes-1)
	case ScenarioCrash:
		// Near-total skew keeps the thieves busy with stolen work, so
		// the crash catches one holding leases.
		if f < 0.95 {
			return 0
		}
		return 1 + uniform%(c.cfg.Nodes-1)
	case ScenarioCacheWarm, ScenarioPartition:
		// Everything lands on the cold side: the warm island's results
		// are only reachable through the cache-probe path under test.
		if c.cfg.WarmNodes < c.cfg.Nodes {
			return c.cfg.WarmNodes + uniform%(c.cfg.Nodes-c.cfg.WarmNodes)
		}
		return uniform
	case ScenarioAdmission:
		// Heavy skew over a shallow queue: node 0 overflows constantly,
		// so admission walks multi-hop Retry-Peer chains.
		if f < 0.9 {
			return 0
		}
		return 1 + uniform%(c.cfg.Nodes-1)
	default:
		return uniform
	}
}

// scheduleHousekeeping arms the periodic machinery: steal ticks and
// lease reapers per node, cluster-wide queue-depth sampling, and the
// scenario's crash.
func (c *Cluster) scheduleHousekeeping() {
	// The daemon's reaper cadence: a quarter lease, at most a second.
	reap := max(jobs.ReapInterval(c.cfg.Lease).Milliseconds(), 1)
	interval := c.cfg.StealInterval.Milliseconds()
	for _, n := range c.nodes {
		// First ticks are staggered by node index.
		c.every(interval+int64(n.idx), interval, kindStealTick, func() {
			if !n.crashed {
				n.stealer.Tick(nil)
			}
		})
		c.every(reap+int64(n.idx), reap, kindReaper, func() {
			if !n.crashed && n.life.Reap() > 0 {
				c.assign(n)
			}
		})
	}
	c.every(sampleEveryMS, sampleEveryMS, kindSample, c.sample)
	if c.cfg.Scenario == ScenarioCrash {
		c.schedule(c.cfg.CrashAtMS, kindCrash, c.crash)
	}
}

// every runs fn at at, then every interval ms while the run is live.
func (c *Cluster) every(at, interval int64, kind int, fn func()) {
	c.schedule(at, kind, func() {
		fn()
		if !c.drained() {
			c.every(c.now+interval, interval, kind, fn)
		}
	})
}

const sampleEveryMS = 100

// drained reports whether every generated job reached a terminal
// account (completed, lost, or orphaned) — the run's natural end.
func (c *Cluster) drained() bool { return c.resolved >= len(c.jobs) }

// submit is the client side of one arrival: jobs.FollowRedirects
// with the hop bound peerclient's Submit passes, against each node's
// Admit and RetryPeer — what perfplayd's POST /analyze calls. A crashed
// node refuses the connection and ends the chain. The walk happens at
// the arrival instant; its link time is charged to the job as a penalty.
func (c *Cluster) submit(j *simJob, origin *node) {
	maxHops := jobs.SubmitHops
	var (
		elapsed  int64
		accepted *node
		hops     = -1 // first submit is hop 0
		chain    = c.inv.chain(j.id)
	)
	submit := func(base string) (jobs.SubmitReply, error) {
		hops++
		if hops > 0 {
			elapsed += c.latencyMS()
		}
		chain.visit(base, maxHops)
		n, _, err := c.dial(nil, base) // a client reaches every live node
		if err != nil {
			return jobs.SubmitReply{}, err
		}
		spec := clusterapi.Spec{App: "sim", TraceDigest: j.digest, Seed: c.cfg.Seed}
		if n.life.Admit(&jobs.Job{ID: j.id, Spec: spec, Local: j}) {
			accepted = n
			return jobs.SubmitReply{ID: j.id}, nil
		}
		reply := jobs.SubmitReply{Reject: fmt.Errorf("queue full at %s", base)}
		reply.RetryPeer, _ = n.life.RetryPeer()
		return reply, nil
	}
	_, _, err := jobs.FollowRedirects(submit, origin.url, maxHops)
	c.cache.AdmissionHops += hops
	if err != nil || accepted == nil {
		c.account(j, "rejected")
		return
	}
	j.penalty = elapsed
	c.assign(accepted)
}

// begin hands a popped or stolen job (victim non-nil) to n's lifecycle,
// whose Start picks the result's source as perfplayd's does; the
// simulator charges only the time. A local or a peer's result settles
// after the probe round, with no worker; a run waits for one, warm when
// n holds the verdict table, with the probe round charged on top.
func (c *Cluster) begin(n *node, j *simJob, victim *node) {
	tr := &simPeer{c: c, from: n}
	key := resultKey(j.digest)
	src, _, _ := n.life.Start(jobs.Keys{Digest: j.digest, Result: key, Table: tableKey(j.digest)}, tr, nil)
	if src != jobs.LocalResult && c.cfg.ProbeFanout > 0 {
		c.inv.probeBound(tr.resultCalls, tr.tableCalls, c.cfg.ProbeFanout)
		if src == jobs.Run {
			c.cache.Degraded++
		}
	}
	aj := &activeJob{job: j, victim: victim}
	n.active = append(n.active, aj)
	switch src {
	case jobs.Run:
		aj.warm, aj.pre = n.cache[j.digest], tr.elapsed
		if aj.warm {
			n.warmRuns++
		}
		return
	case jobs.LocalResult:
		c.cache.LocalHits++
	case jobs.PeerResult:
		c.cache.RemoteHits++
		n.addResult(key)
		c.inv.importedResult(n, key)
	}
	aj.cached = true
	c.schedule(c.now+tr.elapsed+1, kindJobDone, func() {
		if !n.crashed {
			c.retire(n, aj)
		}
	})
}

// assign puts every free worker to work: first on the oldest started
// job still waiting for one (finish what you started), then by popping
// the queue. A worker runs its job whole: the job's cost, scaled by node
// speed and cache warmth, plus the probe round that missed — the one
// thing the simulator models where perfplayd calls pipeline.Run.
func (c *Cluster) assign(n *node) {
	if n.crashed {
		return
	}
	for n.freeWorkers > 0 {
		var aj *activeJob
		for _, a := range n.active {
			if !a.cached && !a.running {
				aj = a
				break
			}
		}
		if aj == nil {
			j, ok := n.life.TryPop()
			if !ok {
				return
			}
			if sj := j.Local.(*simJob); !sj.done {
				n.life.Begin(j)
				c.begin(n, sj, nil)
			}
			continue
		}
		dur := aj.job.total * n.speed
		if aj.warm {
			dur /= warmRunDivisor
		}
		n.freeWorkers--
		aj.running = true
		aj.release = n.life.Occupy(aj.job.id)
		c.schedule(c.now+max(dur, 1)+aj.pre, kindJobDone, func() { c.jobDone(n, aj) })
	}
}

// jobDone returns the worker and retires its job.
func (c *Cluster) jobDone(n *node, aj *activeJob) {
	if n.crashed {
		return // the worker died mid-job with the node
	}
	n.freeWorkers++
	aj.release()
	c.retire(n, aj)
	c.assign(n)
}

// retire delivers a finished job: the node's own through its
// lifecycle's Finish, a stolen one back to its victim through its
// Peer's Settle. A run warms the node; a cache-settled job built
// nothing locally beyond the result it already imported.
func (c *Cluster) retire(n *node, aj *activeJob) {
	for i, a := range n.active {
		if a == aj {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	if !aj.cached {
		n.cache[aj.job.digest] = true
		n.addResult(resultKey(aj.job.digest))
		c.inv.computedResult(n, resultKey(aj.job.digest), aj.job.digest)
	}
	if aj.victim == nil {
		n.completedLocal++
		n.life.Finish(aj.job.id, core.Rendered{}, "", nil)
		return
	}
	err := (&simPeer{c: c, from: n}).Settle(aj.victim.url, aj.job.id, clusterapi.StealResult{Thief: n.url})
	switch {
	case err == nil:
		n.completedStolen++
	case aj.victim.crashed:
		// Work done, owner gone: the result has nowhere to land.
		n.completedStolen++
		c.orphans++
		c.account(aj.job, "completed")
	default:
		// Lease expired first — the victim re-queued the job and the
		// re-run's completion is the one that counts.
		c.duplicates++
	}
}

// sample records every node's queue depth on a fixed cadence for the
// report's depth percentiles.
func (c *Cluster) sample() {
	for _, n := range c.nodes {
		if !n.crashed {
			n.depthSamples = append(n.depthSamples, int64(n.life.QueueLen()))
		}
	}
}

// crash kills one node at (or shortly after) CrashAtMS: CrashNode, or
// with CrashNode < 0 the thief holding the most leases, re-armed every
// 50 ms until some lease is outstanding, so the run exercises lease
// recovery. The dead node's queued and locally running jobs are lost;
// jobs it had stolen come back through the victims' reapers, and a
// live thief's settle to it finds no one: the result is an orphan.
func (c *Cluster) crash() {
	n := c.crashTarget()
	if n == nil {
		if !c.drained() {
			c.schedule(c.now+50, kindCrash, c.crash)
		}
		return
	}
	n.crashed = true
	// Drain the dying queue first: TryPop still serves a closed node,
	// so this enumerates the exact queued jobs that die with the node.
	for {
		j, ok := n.life.TryPop()
		if !ok {
			break
		}
		c.account(j.Local.(*simJob), "lost")
	}
	n.life.Close()
	for _, aj := range n.active {
		if aj.victim == nil {
			c.account(aj.job, "lost")
		}
	}
	n.active = nil
}

// crashTarget picks the node to kill: the configured one, or the live
// thief holding the most leases (ties: lower index). Nil: no lease is
// outstanding yet.
func (c *Cluster) crashTarget() *node {
	if c.cfg.CrashNode >= 0 {
		return c.nodes[c.cfg.CrashNode]
	}
	counts := make([]int, len(c.nodes))
	for _, j := range c.jobs {
		if j.done {
			continue
		}
		for _, v := range c.nodes {
			thief, ok := v.life.Claimant(j.id)
			if !ok {
				continue
			}
			if t := c.byURL(thief); t != nil && !t.crashed {
				counts[t.idx]++
			}
		}
	}
	best := -1
	for i, ct := range counts {
		if ct > 0 && (best < 0 || ct > counts[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return c.nodes[best]
}
