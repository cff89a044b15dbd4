// Package jobs is the job lifecycle of one perfplayd node, free of
// HTTP. A Node holds every job's state under one mutex: the table a
// client polls, the bounded pending queue the owner's workers pop from
// the front and thieves claim from the back, the steal leases with their
// deadlines, and the closed flag. Beside it sit the gossip view, the
// cache-probe policy and the transition log. The node admits a job (or
// names a Retry-Peer), starts it (local result, a peer's result, a
// peer's verdict table, else "run"), leases it to thieves and settles
// their reports, finishes it exactly once, and requeues the jobs whose
// lease lapsed at the front, so a vanished thief costs one lease of
// latency, never the job. Its Stealer is the thief side: while the node
// is idle it claims whole jobs from its peers' queues.
//
// Every call on another node crosses one interface, Peer: status probes,
// claims and settles, cache fetches. Admission's client side is
// FollowRedirects. No net/http here: internal/peerclient implements Peer
// over HTTP.
//
// perfplayd drives it from its handlers and loops; internal/clustersim
// drives one Node per virtual perfplayd on its event clock. What the two
// differ in is injected: the clock, the Peer, the transition log and
// observer hooks. The analysis is the owner's: Start reports "run", and
// the owner runs it and calls Finish. The node spawns no goroutines: the
// owner drives expiry (Reap), stealing (Stealer.Run or Tick) and
// shutdown (Close).
package jobs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/journal"
	"perfplay/internal/telemetry"
)

// Job statuses.
const (
	Queued  = "queued"
	Running = "running"
	Done    = "done"
	Failed  = "failed"
)

// TransitionLog receives what a restart must know of each job as one of
// internal/journal's ops: admitted when it enters the queue, then
// settled or failed once, when it finishes. Claims and requeues are not
// logged: a lease never survives a restart. Calls come synchronously and
// under the node's lock, so the record order is the order the node
// changed state: what makes it safe to replay after a crash.
// Implementations must not call back into the Node.
type TransitionLog interface {
	Transition(op string, j *Job)
}

// Job is one submitted analysis as its node tracks it: the JSON a
// client polls.
type Job struct {
	ID        string    `json:"id"`
	Status    string    `json:"status"`
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished,omitzero"`
	Error     string    `json:"error,omitempty"`

	TraceDigest string `json:"trace_digest,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	StolenBy    string `json:"stolen_by,omitempty"`  // the thief holding (or that settled) its lease
	CachePeer   string `json:"cache_peer,omitempty"` // the peer whose result cache settled it
	TraceID     string `json:"trace_id,omitempty"`   // its distributed trace

	core.Rendered // the finished summary, however obtained

	Spec  clusterapi.Spec `json:"-"` // wire-stealable description (zero: not stealable)
	Local any             `json:"-"` // the owner's per-job state

	deadline time.Time // when its steal lease lapses, while it has one
}

// Cache is the node's local artifact store, in the keys Keys names.
type Cache[T any] interface {
	HasResult(key string) bool
	HasTable(key string) bool
	// ImportTable validates and adopts a peer's verdict table; false
	// means keep probing.
	ImportTable(key string, t T) bool
	// HasCached reports whether the node holds cached artifacts for a
	// trace digest: the stealer prefers a victim advertising one, since
	// that steal settles from cache instead of re-running the pipeline.
	HasCached(digest string) bool
}

// Hooks are the owner's observers. Each runs with the node's lock
// held, so it must not call back into the Node.
type Hooks struct {
	// Changed sees every status change.
	Changed func(j *Job)
	// Finished sees each job once, when it turns terminal.
	Finished func(j *Job)
	// Expired sees a job whose steal lease lapsed, before it is queued
	// again.
	Expired func(j *Job, now time.Time)
	// Occupied sees a worker take up (busy) or put down a job.
	Occupied func(id string, busy bool)
}

// Policy is a node's scheduling knobs, declared once: perfplayd's
// flags and Config, this package's Config and the policy lab's
// scenarios all carry this struct. Defaults holds the values perfplayd
// runs with.
type Policy struct {
	// Workers is how many jobs the node runs at once, one goroutine
	// each, though a job forks its replays beside classification and so
	// may hold two cores. The owner runs them; the Node does not read it.
	Workers int
	// QueueDepth bounds the pending-job queue; a submit past it is
	// refused and pointed at a Retry-Peer.
	QueueDepth int
	// MaxJobs bounds retained finished jobs; the oldest are evicted
	// (0 = keep all).
	MaxJobs int
	// Lease is how long a thief may hold a claimed job before it is
	// requeued here, at the front.
	Lease time.Duration
	// StealInterval is the stealer's idle-poll cadence, and
	// rate-limits the admission fallback probe to one round per
	// interval (non-positive = one per second). perfplayd reads a
	// negative interval as "stealing off".
	StealInterval time.Duration
	// ProbeFanout bounds the peers one cache probe round, and the
	// admission fallback round, asks. 0 turns all probing off.
	ProbeFanout int
	// ProbeTimeout bounds each cache and admission probe. The owner's
	// transport applies it; the Node does not read it.
	ProbeTimeout time.Duration
	// HintKeys bounds the result-cache keys, and the stealable digests,
	// each status answer advertises (0 = no result keys, every
	// stealable digest).
	HintKeys int
}

// Defaults returns the knobs perfplayd runs with: its flag defaults,
// and what its Config reads a zero knob as. ProbeFanout and
// ProbeTimeout are sweep-derived (docs/POLICIES.md, `perfplay sim
// -sweep` over the cache scenarios): fan-out 2 is within a hair of the
// per-scenario best everywhere — fan-out 1 is fragile when caches
// populate organically and hints lag, while 4 doubles the timeout burn
// under partial partitions — and a short 250ms probe timeout is what
// keeps partitions cheap: a blackholed link costs the full timeout per
// probe on the job-execution hot path, and the sweep's 2s rows are the
// worst non-disabled configurations in the partition scenario, while
// 250ms is indistinguishable from 50ms everywhere else.
func Defaults() Policy {
	return Policy{
		Workers:       2,
		QueueDepth:    64,
		MaxJobs:       1024,
		Lease:         2 * time.Minute,
		StealInterval: time.Second,
		ProbeFanout:   2,
		ProbeTimeout:  250 * time.Millisecond,
		HintKeys:      32,
	}
}

// Or returns p with every zero knob taken from d: how perfplayd reads
// its Config, where zero means "the default".
func (p Policy) Or(d Policy) Policy {
	return Policy{
		Workers:       cmp.Or(p.Workers, d.Workers),
		QueueDepth:    cmp.Or(p.QueueDepth, d.QueueDepth),
		MaxJobs:       cmp.Or(p.MaxJobs, d.MaxJobs),
		Lease:         cmp.Or(p.Lease, d.Lease),
		StealInterval: cmp.Or(p.StealInterval, d.StealInterval),
		ProbeFanout:   cmp.Or(p.ProbeFanout, d.ProbeFanout),
		ProbeTimeout:  cmp.Or(p.ProbeTimeout, d.ProbeTimeout),
		HintKeys:      cmp.Or(p.HintKeys, d.HintKeys),
	}
}

// Config sizes a node and injects what differs between the daemon and
// the simulator. Zero means "none" or "unbounded"; owners resolve
// defaults.
type Config[R, T any] struct {
	Policy
	// Peers are the other nodes' base URLs.
	Peers []string

	Local Cache[T]
	// Peer carries the admission fallback probe (nil = none).
	Peer Peer[R, T]
	// Journal receives every transition (nil = none).
	Journal TransitionLog
	// Metrics counts the steal protocol: leases, steals and gossip
	// writes (nil = a private registry's).
	Metrics *Metrics
	// Now is the clock (nil = time.Now).
	Now func() time.Time
	Hooks
}

// Node is one node's job table. R and T are the result and verdict-table
// artifact types its cache probes fetch.
type Node[R, T any] struct {
	Config[R, T]
	Gossip *Gossip

	mu        sync.Mutex
	notEmpty  sync.Cond       // on mu: the queue gained a job, or closed
	jobs      map[string]*Job // every job the node tracks
	pending   []*Job          // queued jobs, oldest first; at most QueueDepth admitted
	leases    map[string]*Job // jobs out on a steal lease
	closed    bool            // admits and leases nothing more
	order     []string        // finished job IDs, oldest first, for eviction
	seq       int64
	running   int
	lastProbe time.Time // last admission fallback round
}

// New builds an empty node with a fresh gossip view on its clock.
func New[R, T any](cfg Config[R, T]) *Node[R, T] {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	n := &Node[R, T]{
		Config: cfg,
		Gossip: newGossip(cfg.Now),
		jobs:   make(map[string]*Job),
		leases: make(map[string]*Job),
	}
	n.notEmpty.L = &n.mu
	return n
}

// ReapInterval is how often a node reaps expired leases: a quarter
// lease, at most a second.
func ReapInterval(lease time.Duration) time.Duration {
	if d := min(lease/4, time.Second); d > 0 {
		return d
	}
	return time.Second
}

// Seq parses the number in a "job-N" ID.
func Seq(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	n, err := strconv.ParseInt(rest, 10, 64)
	return n, ok && err == nil && n >= 0
}

// setStatus changes a job's status and tells the owner. Call with n.mu
// held.
func (n *Node[R, T]) setStatus(j *Job, status string) {
	j.Status = status
	if n.Changed != nil {
		n.Changed(j)
	}
}

// With runs fn on the job under the node's lock; false when the table
// does not hold id.
func (n *Node[R, T]) With(id string, fn func(j *Job)) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.jobs[id]
	if ok {
		fn(j)
	}
	return ok
}

// Each runs fn on every job in the table under the node's lock.
func (n *Node[R, T]) Each(fn func(j *Job)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, j := range n.jobs {
		fn(j)
	}
}

// Admit enters a job in the table and the queue. A job without an ID
// gets the next "job-N"; one without a submit time gets now. A full or
// closed queue refuses it, and the table does not keep it: ask
// RetryPeer where to send the submitter.
func (n *Node[R, T]) Admit(j *Job) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || len(n.pending) >= n.QueueDepth {
		return false
	}
	if j.ID == "" {
		n.seq++
		j.ID = fmt.Sprintf("job-%d", n.seq)
	}
	if j.Submitted.IsZero() {
		j.Submitted = n.Now()
	}
	j.Status = Queued
	n.jobs[j.ID] = j
	n.push(j)
	return true
}

// push appends an admitted job to the queue. Call with n.mu held.
func (n *Node[R, T]) push(j *Job) {
	n.pending = append(n.pending, j)
	n.log(journal.OpAdmitted, j)
	n.notEmpty.Signal()
}

// requeue puts jobs back at the front of the queue, past QueueDepth:
// they were admitted once and already waited, and refusing them would
// turn a thief's crash into job loss. A closed node takes none back and
// requeue reports false. Call with n.mu held.
func (n *Node[R, T]) requeue(js []*Job) bool {
	if n.closed {
		return false
	}
	n.pending = slices.Concat(js, n.pending)
	n.notEmpty.Broadcast()
	return true
}

// Pop blocks until a job is queued and returns the oldest, or reports
// false once the node is closed and its queue drained. The daemon's
// workers loop on it, then Begin the job.
func (n *Node[R, T]) Pop() (*Job, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.pending) == 0 && !n.closed {
		n.notEmpty.Wait()
	}
	return n.pop()
}

// TryPop is Pop without the wait: false when nothing is queued right
// now. The simulator's event loop, which owns the clock, uses it. A
// closed node still serves its queue.
func (n *Node[R, T]) TryPop() (*Job, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pop()
}

func (n *Node[R, T]) pop() (*Job, bool) {
	if len(n.pending) == 0 {
		return nil, false
	}
	j := n.pending[0]
	n.pending = n.pending[1:]
	return j, true
}

// Close stops admission and claims and wakes every blocked Pop; queued
// jobs still drain. Jobs out on a lease stay leased: the journal still
// holds them as admitted, so the next boot queues them again, and a
// lease that lapses first is failed as abandoned by Reap.
func (n *Node[R, T]) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	n.notEmpty.Broadcast()
}

// QueueLen counts queued (unclaimed) jobs.
func (n *Node[R, T]) QueueLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}

// ClaimedCount counts outstanding steal leases.
func (n *Node[R, T]) ClaimedCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.leases)
}

// Claimant names the thief holding a job's lease, if anyone does.
func (n *Node[R, T]) Claimant(id string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.leases[id]
	if !ok {
		return "", false
	}
	return j.StolenBy, true
}

// RegisterGauges exposes the queue and lease state as gauges evaluated
// at scrape time.
func (n *Node[R, T]) RegisterGauges(reg *telemetry.Registry) {
	reg.NewGaugeFunc("perfplay_scheduler_queue_depth",
		"Queued (unclaimed) jobs.", func() float64 { return float64(n.QueueLen()) })
	reg.NewGaugeFunc("perfplay_scheduler_queue_capacity",
		"Admission bound of the job queue.", func() float64 { return float64(n.QueueDepth) })
	reg.NewGaugeFunc("perfplay_scheduler_leases_outstanding",
		"Stolen jobs currently out on a lease.", func() float64 { return float64(n.ClaimedCount()) })
}

// RetryPeer names the admission redirect target for a submit this node
// refused: the healthy peer with the shortest known queue that has
// room. When the gossip view yields none and holds no healthy peer at
// all (no stealer, nothing probed yet, only stale failures), one
// bounded probe round stands in, at most once per StealInterval — it
// runs exactly when the node is overloaded, and must not turn overload
// into a probe storm. A healthy-but-full view is an honest "no room".
func (n *Node[R, T]) RetryPeer() (string, bool) {
	if len(n.Peers) == 0 {
		return "", false
	}
	snap := n.Gossip.Snapshot()
	if peer, ok := IdlestPeer(n.Peers, snap); ok {
		return peer, true
	}
	for _, peer := range n.Peers {
		if st, ok := snap[peer]; ok && st.Err == "" {
			return "", false
		}
	}
	if n.Peer == nil || n.ProbeFanout == 0 || !n.probeAllowed() {
		return "", false
	}
	peers := n.Peers[:min(n.ProbeFanout, len(n.Peers))]
	for _, peer := range peers {
		n.probe(n.Peer, peer)
	}
	return IdlestPeer(peers, n.Gossip.Snapshot())
}

func (n *Node[R, T]) probeAllowed() bool {
	interval := n.StealInterval
	if interval <= 0 {
		interval = time.Second
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.Now()
	if now.Sub(n.lastProbe) < interval {
		return false
	}
	n.lastProbe = now
	return true
}

// Status is what this node advertises to a probing peer: its backlog,
// how much of it a thief could claim, the digests of those jobs newest
// first (claim order, at most HintKeys, 0 = all), and the result keys it
// caches.
func (n *Node[R, T]) Status(cacheKeys []string) clusterapi.PeerStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := clusterapi.PeerStatus{
		QueueLen:  len(n.pending),
		QueueCap:  n.QueueDepth,
		CacheKeys: cacheKeys,
		Seen:      n.Now(),
	}
	for _, j := range slices.Backward(n.pending) {
		if !j.Spec.Stealable() {
			continue
		}
		st.Stealable++
		if j.Spec.TraceDigest != "" && (n.HintKeys == 0 || len(st.StealableDigests) < n.HintKeys) {
			st.StealableDigests = append(st.StealableDigests, j.Spec.TraceDigest)
		}
	}
	return st
}

// Begin marks a job popped off the queue as running here.
func (n *Node[R, T]) Begin(j *Job) Job {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setStatus(j, Running)
	return *j
}

// Occupy counts a worker busy with job id — stolen jobs, not in this
// table, too — until the returned release runs.
func (n *Node[R, T]) Occupy(id string) (release func()) {
	occupy := func(busy bool, delta int) {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.running += delta
		if n.Occupied != nil {
			n.Occupied(id, busy)
		}
	}
	occupy(true, 1)
	return func() { occupy(false, -1) }
}

// Running counts busy workers.
func (n *Node[R, T]) Running() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.running
}

// Keys names one started job's cacheable artifacts. An empty Digest
// marks a job that is not content-addressed: it probes no peer.
type Keys struct {
	Digest, Result, Table string
	TopK                  int
}

// Source is where Start found a job's result.
type Source int

const (
	// Run: no cache answered; run the analysis (warmer, if a peer's
	// verdict table was imported).
	Run Source = iota
	// LocalResult: this node's result cache answers.
	LocalResult
	// PeerResult: a peer's result cache answered; the artifact is
	// returned.
	PeerResult
)

// Start decides where a local or stolen job's result comes from: this
// node's result cache; else, when probing is on, a peer's result cache
// fetched through p (gossip-ordered, bounded fan-out); else the run —
// after adopting a peer's verdict table when this node holds none.
// observe, when set, sees every probe attempt.
func (n *Node[R, T]) Start(k Keys, p Peer[R, T], observe Observer) (src Source, r R, peer string) {
	if k.Result != "" && n.Local.HasResult(k.Result) {
		return LocalResult, r, ""
	}
	if n.ProbeFanout == 0 || len(n.Peers) == 0 || k.Digest == "" {
		return Run, r, ""
	}
	view := n.Gossip.Snapshot()
	if k.Result != "" {
		if r, peer, ok := n.probeResult(p, view, k.Result, k.TopK, observe); ok {
			return PeerResult, r, peer
		}
	}
	if k.Table != "" && !n.Local.HasTable(k.Table) {
		n.probeTable(p, view, k.Digest, k.Table, observe)
	}
	return Run, r, ""
}

// Claim leases the newest stealable queued job to a thief until
// now+Lease and marks it running elsewhere. It returns the job and the
// lease deadline; false when nothing is stealable or the node is closed.
func (n *Node[R, T]) Claim(thief string) (Job, time.Time, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return Job{}, time.Time{}, false
	}
	for i := len(n.pending) - 1; i >= 0; i-- {
		j := n.pending[i]
		if !j.Spec.Stealable() {
			continue
		}
		n.pending = slices.Delete(n.pending, i, i+1)
		j.deadline = n.Now().Add(n.Lease)
		n.leases[j.ID] = j
		n.Metrics.LeasesGranted.Inc()
		j.StolenBy = thief
		n.setStatus(j, Running)
		return *j, j.deadline, true
	}
	return Job{}, time.Time{}, false
}

// Settle finishes a claimed job with its thief's report (errMsg
// non-empty for a failed analysis), journaled settled or failed. A job
// no longer on lease answers ErrLeaseExpired: its result is stale, and
// the requeued run is the one that counts.
func (n *Node[R, T]) Settle(id, thief string, sum core.Rendered, errMsg string) (Job, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.leases[id]
	if !ok {
		return Job{}, fmt.Errorf("job %s: %w", id, ErrLeaseExpired)
	}
	delete(n.leases, id)
	n.Metrics.LeasesSettled.Inc()
	var err error
	if errMsg != "" {
		err = errors.New(errMsg)
	}
	if thief != "" {
		j.StolenBy = thief
	}
	n.finish(j, sum, "", err)
	return *j, nil
}

// Finish ends a job this node ran (or failed to recover): the summary
// and the peer whose cache served it, or the error. False when the job
// is gone or already finished.
func (n *Node[R, T]) Finish(id string, sum core.Rendered, cachePeer string, err error) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.jobs[id]
	return ok && n.finish(j, sum, cachePeer, err)
}

// finish is the one place a job turns terminal, exactly once: its one
// terminal record (failed with err, else settled), the status with
// summary or error, the owner's hooks, retention and eviction past
// MaxJobs. Call with n.mu held.
func (n *Node[R, T]) finish(j *Job, sum core.Rendered, cachePeer string, err error) bool {
	if j.Status == Done || j.Status == Failed {
		return false
	}
	j.Finished = n.Now()
	j.CachePeer = cachePeer
	status := Done
	if err != nil {
		n.log(journal.OpFailed, j)
		status, j.Error = Failed, err.Error()
	} else {
		n.log(journal.OpSettled, j)
		j.Rendered = sum
	}
	n.setStatus(j, status)
	if n.Finished != nil {
		n.Finished(j)
	}
	n.order = append(n.order, j.ID)
	for n.MaxJobs > 0 && len(n.order) > n.MaxJobs {
		delete(n.jobs, n.order[0])
		n.order = n.order[1:]
	}
	return true
}

func (n *Node[R, T]) log(op string, j *Job) {
	if n.Journal != nil {
		n.Journal.Transition(op, j)
	}
}

// errAbandoned fails a job whose lease expired into a closed node.
var errAbandoned = errors.New("abandoned: steal lease expired while the server was shutting down")

// Reap takes back every lease that lapsed, oldest deadline first (ties
// by job ID, so an injected coarse clock still recovers in a fixed
// order), and requeues those jobs at the front, so a vanished thief
// costs one lease of latency, never the job. It returns how many. A
// closed node takes none back: those jobs fail as abandoned, so their
// clients see the loss.
func (n *Node[R, T]) Reap() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.Now()
	var expired []*Job
	for id, j := range n.leases {
		if now.After(j.deadline) {
			expired = append(expired, j)
			delete(n.leases, id)
		}
	}
	slices.SortFunc(expired, func(a, b *Job) int {
		return cmp.Or(a.deadline.Compare(b.deadline), cmp.Compare(a.ID, b.ID))
	})
	n.Metrics.LeasesExpired.Add(float64(len(expired)))
	for _, j := range expired {
		if n.Expired != nil {
			n.Expired(j, now)
		}
		j.StolenBy = ""
		n.setStatus(j, Queued)
	}
	if !n.requeue(expired) {
		for _, j := range expired {
			n.finish(j, core.Rendered{}, "", errAbandoned)
		}
	}
	return len(expired)
}

// Restore puts a job recovered from a journal back in the table, under
// its old ID, and moves the ID sequence past it. Recover then queues it,
// or Finish fails it.
func (n *Node[R, T]) Restore(j *Job) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j.Status = Queued
	n.jobs[j.ID] = j
	n.reserveLocked(j.ID)
}

// Reserve moves the ID sequence past id, so Admit never hands it out: a
// restarted node reserves the newest ID its journal was given, whether
// or not that job finished before the restart.
func (n *Node[R, T]) Reserve(id string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reserveLocked(id)
}

func (n *Node[R, T]) reserveLocked(id string) {
	if s, ok := Seq(id); ok && s > n.seq {
		n.seq = s
	}
}

// Recover queues restored jobs at the back in the order given, the
// journal's admit order, past QueueDepth: each was admitted once, as a
// requeued lease was. A closed node takes none: it fails and returns
// them.
func (n *Node[R, T]) Recover(live []*Job) (lost []*Job) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, j := range live {
		if n.closed {
			n.finish(j, core.Rendered{}, "", errors.New("job not recovered: queue closed during recovery"))
			lost = append(lost, j)
			continue
		}
		n.push(j)
	}
	return lost
}
