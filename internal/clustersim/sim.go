package clustersim

import (
	"fmt"
	"time"

	"perfplay/internal/cachepolicy"
	"perfplay/internal/clusterapi"
	"perfplay/internal/scheduler"
)

// epoch anchors simulated time: node clocks read epoch + now·1ms. Any
// fixed instant works; Unix zero in UTC keeps timestamps legible in
// debugging output.
var epoch = time.Unix(0, 0).UTC()

// warmRunDivisor is how much cheaper a job runs on a node that already
// holds the job's trace artifacts: the identify pass and replay are
// served from cache, leaving only merge/report work. The factor is the
// whole reason hinted steals exist.
const warmRunDivisor = 4

// traceFetchDivisor sizes the trace download a thief performs before
// executing a cold stolen job (the daemon's GET /traces/{digest} from
// the victim): fetch time = job cost / traceFetchDivisor. A warm thief
// skips the fetch entirely — the other half of the hinted-steal win.
const traceFetchDivisor = 3

// simJob is one generated workload unit as the simulator tracks it —
// the scheduler only ever sees its clusterapi.Spec.
type simJob struct {
	id      string
	digest  string
	arrival int64 // submitted at (sim ms)
	origin  int   // node it first arrived at
	total   int64 // ms of cold work on a nominal-speed worker
	done    bool  // completed (or orphaned) — resolved for accounting
	// penalty is latency charged outside the event clock: the link time
	// a multi-hop admission chain spent before the job landed anywhere.
	penalty int64
}

// activeJob is a job a node has started: waiting for a worker, or
// running whole on one, as a daemon worker runs it.
type activeJob struct {
	job     *simJob
	running bool
	warm    bool
	// cached marks a job settled straight from a result cache (local or
	// probed off a peer): no worker — just a settle event.
	cached bool
	// pre is virtual time already spent before the run can begin (the
	// cache-probe round that missed); charged on top of the run.
	pre int64
	// victim is the node this job was stolen from (nil for local runs);
	// completion settles the lease back through the transport.
	victim *node
}

// node is one virtual perfplayd: the real queue/gossip/stealer policy
// objects plus the simulation-only worker and cache model around them.
type node struct {
	c   *Cluster
	idx int
	url string

	queue   *scheduler.Queue
	gossip  *scheduler.Gossip
	stealer *scheduler.Stealer
	metrics *scheduler.Metrics

	freeWorkers int
	// pendingStolen reserves workers for claims whose stolen job is
	// still in flight over the (simulated) link, so the greedy steal
	// loop cannot over-claim while its earlier claims are airborne.
	pendingStolen int
	active        []*activeJob
	cache         map[string]bool
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

// idle implements Stealer.Idle: spare capacity not already promised to
// an in-flight claim.
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

// resultKey and tableKey name the cached artifacts for a trace digest,
// shaped like the daemon's cache keys: the result key has the digest as
// its first "|"-separated segment, so clusterapi.PeerStatus.HintsKey
// matches it exactly and HintsDigest matches it by digest prefix.
func resultKey(digest string) string { return digest + "|sim" }
func tableKey(digest string) string  { return digest + "|table" }

// Cluster is one simulation in progress.
type Cluster struct {
	cfg    Config
	rng    *PartitionedRNG
	events eventHeap
	seq    int64
	now    int64

	nodes []*node
	jobs  []*simJob
	byID  map[string]*simJob

	resolved  int // jobs done, lost, or orphaned — never coming back
	latencies []int64

	// Cluster-wide counters (per-node ones live on node / its metrics).
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
	c := &Cluster{cfg: cfg, rng: NewPartitionedRNG(cfg.Seed), byID: make(map[string]*simJob)}
	c.inv = newInvariants(c)
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			c:           c,
			idx:         i,
			url:         fmt.Sprintf("sim://node-%d", i),
			gossip:      scheduler.NewGossip(),
			metrics:     scheduler.NewMetrics(nil),
			freeWorkers: cfg.WorkersPerNode,
			cache:       make(map[string]bool),
			results:     make(map[string]bool),
			speed:       1,
		}
		n.queue = scheduler.NewQueue(cfg.QueueDepth)
		n.queue.Metrics = n.metrics
		n.queue.Now = c.clock
		n.gossip.Now = c.clock
		c.nodes = append(c.nodes, n)
	}
	if cfg.Scenario == ScenarioSlowNode {
		c.nodes[cfg.Nodes-1].speed = cfg.SlowFactor
	}
	// Pre-warm the warm island: nodes [0, WarmNodes) ran the whole
	// corpus yesterday. Like the daemon's two-tier cache, the tiers age
	// differently: the verdict tables and trace artifacts are still on
	// disk for every digest, but the LRU result cache has since evicted
	// half the pool — so probes for evicted digests miss on results,
	// fall through to the table probe, and the cold node runs warm
	// instead of settling for free.
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
		n.stealer = c.newStealer(n)
	}
	return c
}

// linkUp reports whether a and b can currently reach each other. Links
// are symmetric; the only way one goes down is the partition scenario's
// window, during which the warm island [0, WarmNodes) and the cold
// nodes are mutually unreachable — except via the last node, the
// bridge, which both sides still see. That asymmetry of knowledge (the
// bridge sees a peer its neighbors cannot) is what makes gossiped hints
// dangerous: a cold node hears about a warm cache it cannot reach.
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

// clock renders simulated time as the time.Time the real policy code
// expects — injected into Queue.Now, Gossip.Now and Stealer.Now.
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

// byURL resolves a peer URL to its node; nil models an address that
// never existed.
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

func (c *Cluster) newStealer(n *node) *scheduler.Stealer {
	return &scheduler.Stealer{
		Self:    n.url,
		Peers:   c.peersOf(n),
		Idle:    n.idle,
		Gossip:  n.gossip,
		Metrics: n.metrics,
		Now:     c.clock,
		// Hint-driven victim ordering, as perfplayd's StartStealer wires it.
		HasCached: func(digest string) bool { return n.cache[digest] },
		Transport: &memTransport{c: c, from: n},
		Execute: func(victim string, sj scheduler.StolenJob) error {
			// The real daemon executes synchronously inside the steal
			// loop; the simulator cannot block an event, so the claim
			// reserves a worker immediately and the job lands after one
			// link delay. Always nil: execution failures surface as
			// expired leases on the victim, exactly like a thief crash.
			job := c.byID[sj.ID]
			v := c.byURL(victim)
			if job == nil || v == nil {
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
				c.startJob(n, job, v)
				c.assign(n)
			})
			return nil
		},
	}
}

// memTransport carries the steal protocol between simulated nodes: the
// scheduler.Transport the daemon implements over HTTP, implemented over
// direct method calls on the victim's real Queue. A crashed node is a
// refused connection; a partitioned link is one too (from's side of the
// fabric cannot reach the peer at all).
type memTransport struct {
	c *Cluster
	// from is the node issuing the calls — the partition model needs to
	// know both ends of the link.
	from *node
}

func (t *memTransport) lookup(peer string) (*node, error) {
	n := t.c.byURL(peer)
	if n == nil || n.crashed {
		return nil, fmt.Errorf("dial %s: connection refused", peer)
	}
	if !t.c.linkUp(t.from, n) {
		return nil, fmt.Errorf("dial %s: network unreachable (partitioned)", peer)
	}
	return n, nil
}

func (t *memTransport) Probe(peer string) (scheduler.PeerStatus, error) {
	v, err := t.lookup(peer)
	if err != nil {
		return scheduler.PeerStatus{}, err
	}
	return scheduler.PeerStatus{
		QueueLen:         v.queue.Len(),
		QueueCap:         v.queue.Cap(),
		Stealable:        v.queue.Stealable(),
		StealableDigests: v.queue.StealableDigests(8),
		CacheKeys:        v.recentKeys(t.c.cfg.HintBreadth),
	}, nil
}

func (t *memTransport) Claim(peer, thief string) (scheduler.StolenJob, bool, error) {
	v, err := t.lookup(peer)
	if err != nil {
		return scheduler.StolenJob{}, false, err
	}
	lease := time.Duration(t.c.cfg.LeaseMS) * time.Millisecond
	j, _, ok := v.queue.Claim(thief, lease)
	if !ok {
		return scheduler.StolenJob{}, false, nil
	}
	return scheduler.StolenJob{ID: j.ID, Spec: j.Spec, LeaseMS: t.c.cfg.LeaseMS}, true, nil
}

func (t *memTransport) Settle(victim, jobID string, res clusterapi.StealResult) error {
	v, err := t.lookup(victim)
	if err != nil {
		return err
	}
	if _, ok := v.queue.Complete(jobID); !ok {
		return fmt.Errorf("settle %s on %s: %w", jobID, victim, scheduler.ErrLeaseExpired)
	}
	return nil
}

// cacheLatencyMS draws one cache-probe round trip. Its own stream, so
// probe traffic does not perturb the steal path's latency draws.
func (c *Cluster) cacheLatencyMS() int64 {
	return 1 + c.rng.Stream("cachelat").Int64N(4)
}

// simCacheTransport is the cachepolicy.Fetcher the simulator injects
// into the real Prober — the virtual-clock counterpart of the daemon's
// httpCacheTransport. One instance serves one job's probe session and
// accumulates the session's virtual cost in elapsed: a healthy peer
// answers in one latency draw, a crashed peer refuses fast, and a
// partitioned link is a blackhole that burns the full probe timeout —
// which is precisely why the timeout knob exists.
//
// The artifact types are the cache keys themselves: the sim has no
// bytes to decode, and the policy code never opens artifacts anyway.
type simCacheTransport struct {
	c       *Cluster
	from    *node
	elapsed int64
	// resultCalls / tableCalls count the session's fetches per round,
	// for the fan-out invariant.
	resultCalls int
	tableCalls  int
}

var _ cachepolicy.Fetcher[string, string] = (*simCacheTransport)(nil)

// fetch resolves one probe's target and charges its virtual cost.
func (t *simCacheTransport) fetch(peer string) (*node, error) {
	t.c.cache.Probes++
	target := t.c.byURL(peer)
	if target == nil || target.crashed {
		t.elapsed++ // refused connections fail fast
		return nil, fmt.Errorf("dial %s: connection refused", peer)
	}
	if !t.c.linkUp(t.from, target) {
		t.elapsed += t.c.cfg.ProbeTimeoutMS
		t.c.cache.ProbeTimeouts++
		return nil, fmt.Errorf("probe %s: timeout (blackholed)", peer)
	}
	rtt := t.c.cacheLatencyMS()
	if rtt > t.c.cfg.ProbeTimeoutMS {
		t.elapsed += t.c.cfg.ProbeTimeoutMS
		t.c.cache.ProbeTimeouts++
		return nil, fmt.Errorf("probe %s: timeout", peer)
	}
	t.elapsed += rtt
	return target, nil
}

func (t *simCacheTransport) FetchResult(peer, key string, topK int) (string, error) {
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

func (t *simCacheTransport) FetchTable(peer, key string) (string, error) {
	t.tableCalls++
	target, err := t.fetch(peer)
	if err != nil {
		return "", err
	}
	// A node can serve the verdict table for every digest it holds warm
	// artifacts for: computing a result builds the table, and importing
	// a table adopts it.
	digest := tableDigest(key)
	if !target.cache[digest] {
		return "", fmt.Errorf("table %s: miss on %s", key, peer)
	}
	t.c.inv.served("table", target, t.from, digest)
	return key, nil
}

// tableDigest recovers the trace digest from a table key.
func tableDigest(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '|' {
			return key[:i]
		}
	}
	return key
}

// probeCaches runs one cache-missed job's real probe policy —
// cachepolicy.Prober over the sim transport, against the node's live
// gossip view — and applies what it finds: a remote result hit settles
// the job (the caller's cue), a table hit warms the node for a cheaper
// cold run. The returned elapsed is the session's virtual cost, charged
// ahead of whatever the job does next; hit or miss, probing never fails
// the job.
func (c *Cluster) probeCaches(n *node, j *simJob) (hit bool, elapsed int64) {
	tr := &simCacheTransport{c: c, from: n}
	pr := &cachepolicy.Prober[string, string]{Transport: tr, Fanout: c.cfg.ProbeFanout}
	peers := c.peersOf(n)
	view := n.gossip.Snapshot()
	key := resultKey(j.digest)
	if _, _, ok := pr.ProbeResult(peers, view, key, 0); ok {
		c.cache.RemoteHits++
		n.addResult(key)
		c.inv.importedResult(n, key)
		hit = true
	} else if !n.cache[j.digest] {
		// No finished result anywhere reachable — try to at least adopt
		// the verdict table so the local run goes warm. accept is
		// unconditional: the sim's artifacts cannot be corrupt.
		if _, ok := pr.ProbeTable(peers, view, j.digest, tableKey(j.digest), func(string) bool { return true }); ok {
			c.cache.TableImports++
			n.cache[j.digest] = true
			c.inv.importedTable(n, j.digest)
		}
	}
	c.inv.probeBound(tr.resultCalls, tr.tableCalls, c.cfg.ProbeFanout)
	if !hit {
		c.cache.Degraded++
	}
	return hit, tr.elapsed
}

// settleCached completes a job from a result cache after delay: no
// worker — the activeJob exists only so a crash between now and the
// settle drops it like any other in-flight work.
func (c *Cluster) settleCached(n *node, j *simJob, victim *node, delay int64) {
	aj := &activeJob{job: j, victim: victim, cached: true}
	n.active = append(n.active, aj)
	c.schedule(c.now+delay, kindJobDone, func() {
		if n.crashed {
			return
		}
		c.finishJob(n, aj)
	})
}

// generateWorkload pre-draws every arrival from the partitioned streams
// and schedules them. Drawing everything up front (rather than lazily
// inside events) pins the workload to the seed alone: no policy knob
// can perturb which jobs exist.
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
		// Mean job ≈ 10.5 lock groups × ~35ms ≈ 360ms of cold work —
		// against the default 100ms mean arrival this oversubscribes a
		// skewed-at node several workers deep, which is the regime work
		// stealing exists for. One cost draw per group, as ever.
		var total int64
		for g := 6 + cost.IntN(10); g > 0; g-- {
			total += 10 + cost.Int64N(50)
		}
		j := &simJob{
			id:      fmt.Sprintf("job-%05d", idx),
			digest:  digests[cost.IntN(len(digests))],
			arrival: t,
			origin:  origin,
			total:   total,
		}
		c.jobs = append(c.jobs, j)
		c.byID[j.id] = j
		c.schedule(j.arrival, kindArrival, func() { c.admit(j, c.nodes[origin]) })
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
		// Near-total skew keeps the thieves saturated with stolen work,
		// so the crash reliably catches the dying node holding leases —
		// the recovery path the scenario exists to exercise.
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
	for _, n := range c.nodes {
		n := n
		// Stagger first ticks by node index so same-millisecond rounds
		// keep a defined order even across cadence changes.
		c.schedule(c.cfg.StealIntervalMS+int64(n.idx), kindStealTick, func() { c.stealTick(n) })
		reap := c.cfg.LeaseMS / 2
		if reap < 1 {
			reap = 1
		}
		c.schedule(reap+int64(n.idx), kindReaper, func() { c.reap(n) })
	}
	c.schedule(sampleEveryMS, kindSample, c.sample)
	if c.cfg.Scenario == ScenarioCrash {
		c.schedule(c.cfg.CrashAtMS, kindCrash, c.crash)
	}
}

const sampleEveryMS = 100

// drained reports whether every generated job reached a terminal
// account (completed, lost, or orphaned) — the run's natural end.
func (c *Cluster) drained() bool { return c.resolved >= len(c.jobs) }

func (c *Cluster) reject(j *simJob) {
	j.done = true
	c.rejected++
	c.resolved++
	c.inv.terminalOnce(j.id, "rejected")
}

// admit walks one arrival through the real multi-hop admission chain,
// cachepolicy.FollowRedirects — the exact code, hop bound and visited
// set corpus.Remote submits through, with the bound it passes
// (cachepolicy.Defaults().SubmitHops) — over an in-memory submit
// adapter. A full node's rejection names its gossip-picked idlest peer
// as the Retry-Peer, and the chain walks on; a crashed node refuses the
// connection, which ends the chain as it ends a real client's. The walk
// is synchronous at the arrival instant; its link time is charged to
// the job as a latency penalty.
func (c *Cluster) admit(j *simJob, origin *node) {
	maxHops := cachepolicy.Defaults().SubmitHops
	var (
		elapsed  int64
		accepted *node
		hops     = -1 // first submit is hop 0
		chain    = c.inv.chain(j.id)
	)
	submit := func(base string) (cachepolicy.SubmitReply, error) {
		hops++
		if hops > 0 {
			elapsed += c.latencyMS()
		}
		chain.visit(base, maxHops)
		n := c.byURL(base)
		if n == nil || n.crashed {
			return cachepolicy.SubmitReply{}, fmt.Errorf("dial %s: connection refused", base)
		}
		qj := &scheduler.Job{
			ID:   j.id,
			Spec: clusterapi.Spec{App: "sim", TraceDigest: j.digest, Seed: c.cfg.Seed},
		}
		if n.queue.Push(qj) {
			accepted = n
			return cachepolicy.SubmitReply{ID: j.id}, nil
		}
		reply := cachepolicy.SubmitReply{Reject: fmt.Errorf("queue full at %s", base)}
		if peer, ok := scheduler.IdlestPeer(c.peersOf(n), n.gossip.Snapshot()); ok {
			reply.RetryPeer = peer
		}
		return reply, nil
	}
	_, _, err := cachepolicy.FollowRedirects(submit, origin.url, maxHops)
	c.cache.AdmissionHops += hops
	if err != nil || accepted == nil {
		c.reject(j)
		return
	}
	j.penalty = elapsed
	c.assign(accepted)
}

// startJob registers a job as started on n, waiting for a worker.
// victim is non-nil for stolen jobs. The job first consults the result
// caches like the daemon's executeJob: a local hit settles instantly, a
// probed remote hit settles after the probe round trip, a table hit
// warms the run, and a miss everywhere degrades to the cold run with
// the probe time charged up front.
func (c *Cluster) startJob(n *node, j *simJob, victim *node) {
	if n.results[resultKey(j.digest)] {
		c.cache.LocalHits++
		c.settleCached(n, j, victim, 1)
		return
	}
	var pre int64
	if c.cfg.ProbeFanout > 0 {
		hit, elapsed := c.probeCaches(n, j)
		if hit {
			c.settleCached(n, j, victim, elapsed+1)
			return
		}
		pre = elapsed
	}
	aj := &activeJob{
		job:    j,
		victim: victim,
		warm:   n.cache[j.digest],
		pre:    pre,
	}
	if aj.warm {
		n.warmRuns++
	}
	n.active = append(n.active, aj)
}

// assign puts every free worker to work: first on the oldest started
// job still waiting for one (finish what you started), then by popping
// the queue. A worker runs its job whole: the job's cost, scaled by node
// speed and cache warmth, plus the probe round that missed.
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
			qj, ok := n.queue.TryPop()
			if !ok {
				return
			}
			if j := c.byID[qj.ID]; j != nil && !j.done {
				c.startJob(n, j, nil)
			}
			continue
		}
		dur := aj.job.total * n.speed
		if aj.warm {
			dur /= warmRunDivisor
		}
		n.freeWorkers--
		aj.running = true
		c.inv.jobStarted(n)
		c.schedule(c.now+max(dur, 1)+aj.pre, kindJobDone, func() { c.jobDone(n, aj) })
	}
}

// jobDone returns the worker and completes its job.
func (c *Cluster) jobDone(n *node, aj *activeJob) {
	if n.crashed {
		return // the worker died mid-job with the node
	}
	n.freeWorkers++
	c.inv.jobStopped(n)
	c.finishJob(n, aj)
	c.assign(n)
}

// finishJob retires an active job: warms the node's digest cache,
// settles the lease for stolen work, and records the completion.
func (c *Cluster) finishJob(n *node, aj *activeJob) {
	for i, a := range n.active {
		if a == aj {
			n.active = append(n.active[:i], n.active[i+1:]...)
			break
		}
	}
	if !aj.cached {
		// A real run warms the node; a cache-settled job built nothing
		// locally beyond the result it already imported.
		n.cache[aj.job.digest] = true
		n.addResult(resultKey(aj.job.digest))
		c.inv.computedResult(n, resultKey(aj.job.digest), aj.job.digest)
	}
	if aj.victim != nil {
		tr := memTransport{c: c, from: n}
		err := tr.Settle(aj.victim.url, aj.job.id, clusterapi.StealResult{Thief: n.url})
		switch {
		case err == nil:
			n.completedStolen++
		case aj.victim.crashed:
			// Work done, owner gone: the result has nowhere to land.
			n.completedStolen++
			c.orphans++
		default:
			// Lease expired first — the victim re-queued the job and
			// the re-run's completion is the one that counts.
			c.duplicates++
			return
		}
	} else {
		n.completedLocal++
	}
	c.complete(aj.job)
}

func (c *Cluster) complete(j *simJob) {
	if j.done {
		return
	}
	j.done = true
	c.resolved++
	c.latencies = append(c.latencies, c.now-j.arrival+j.penalty)
	if c.now > c.lastCompleted {
		c.lastCompleted = c.now
	}
	c.inv.terminalOnce(j.id, "completed")
}

// stealTick drives one real Stealer round at simulated time, then
// re-arms while the run is live.
func (c *Cluster) stealTick(n *node) {
	if n.crashed {
		return
	}
	n.stealer.Tick(nil)
	if !c.drained() {
		c.schedule(c.now+c.cfg.StealIntervalMS, kindStealTick, func() { c.stealTick(n) })
	}
}

// reap recovers expired steal leases through the queue's real recovery
// path, exactly like the daemon's reaper goroutine.
func (c *Cluster) reap(n *node) {
	if n.crashed {
		return
	}
	if expired := n.queue.TakeExpired(c.clock()); len(expired) > 0 {
		n.queue.Requeue(expired)
		c.assign(n)
	}
	if !c.drained() {
		reap := c.cfg.LeaseMS / 2
		if reap < 1 {
			reap = 1
		}
		c.schedule(c.now+reap, kindReaper, func() { c.reap(n) })
	}
}

// sample records every node's queue depth on a fixed cadence for the
// report's depth percentiles.
func (c *Cluster) sample() {
	for _, n := range c.nodes {
		if n.crashed {
			continue
		}
		n.depthSamples = append(n.depthSamples, int64(n.queue.Len()))
	}
	if !c.drained() {
		c.schedule(c.now+sampleEveryMS, kindSample, c.sample)
	}
}

// crash kills one node at (or shortly after) CrashAtMS. With
// CrashNode < 0 — the default — the scenario self-targets like a chaos
// probe aimed at the steal protocol: it kills whichever thief holds
// the most outstanding leases right now, re-arming in 50ms slices
// until some lease is outstanding, so the run reliably exercises
// lease-expiry recovery instead of depending on a lucky timestamp.
// A non-negative CrashNode kills that node at exactly CrashAtMS,
// leases or not.
//
// The dead node's queued and locally running jobs are lost; jobs it
// had stolen (claimed elsewhere, unfinished here) are NOT — the
// victims' leases expire and their reapers re-queue them, which is
// exactly the recovery path this scenario exists for. Claims the dead
// node had granted to live thieves also stay outstanding: the thief's
// settle finds the victim gone and the finished result is accounted
// an orphan.
func (c *Cluster) crash() {
	n := c.crashTarget()
	if n == nil {
		if !c.drained() {
			c.schedule(c.now+50, kindCrash, c.crash)
		}
		return
	}
	n.crashed = true
	// Drain the dying queue first: TryPop still serves a closed queue,
	// so this enumerates the exact queued jobs that die with the node.
	for {
		qj, ok := n.queue.TryPop()
		if !ok {
			break
		}
		c.lose(c.byID[qj.ID])
	}
	n.queue.Close()
	for _, aj := range n.active {
		if aj.victim == nil {
			c.lose(aj.job)
		}
	}
	n.active = nil
}

// crashTarget picks the node to kill: the configured one, or — in
// auto mode — the live thief holding the most outstanding leases
// (ties break on the lower node index; generation-order job iteration
// keeps the count deterministic). Nil means "no lease outstanding,
// try again shortly".
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
			thief, ok := v.queue.Claimant(j.id)
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

func (c *Cluster) lose(j *simJob) {
	if j == nil || j.done {
		return
	}
	j.done = true
	c.resolved++
	c.lostJobs++
	c.inv.terminalOnce(j.id, "lost")
}
