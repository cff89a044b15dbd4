// Package jobs is the job lifecycle of one perfplayd node, free of
// HTTP: a mutex-guarded job table over the node's stealable queue,
// gossip view, cache-probe policy and transition log. It admits a job
// (or names a Retry-Peer), starts it (local result, a peer's result, a
// peer's verdict table, else "run"), leases it to thieves and settles
// their reports, finishes it exactly once, and reaps expired leases.
//
// perfplayd drives it from its handlers and loops; internal/clustersim
// drives one Node per virtual perfplayd on its event clock. What the two
// differ in is injected: the clock, the transports, the transition log
// and observer hooks. The analysis is the owner's: Start reports "run",
// and the owner runs it and calls Finish.
package jobs

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"perfplay/internal/cachepolicy"
	"perfplay/internal/core"
	"perfplay/internal/scheduler"
)

// Job statuses.
const (
	Queued  = "queued"
	Running = "running"
	Done    = "done"
	Failed  = "failed"
)

// Terminal transitions the node logs itself; the queue logs the rest
// (scheduler.Transition*). Both mirror internal/journal's record ops.
const (
	TransitionFailed  = "failed"  // a job ended with an error outside a lease
	TransitionEvicted = "evicted" // a finished job left the table (MaxJobs)
)

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

	Spec  scheduler.Spec `json:"-"` // wire-stealable description (zero: not stealable)
	Local any            `json:"-"` // the owner's per-job state
}

// Cache is the node's local artifact store, in the keys Keys names.
type Cache[T any] interface {
	HasResult(key string) bool
	HasTable(key string) bool
	// ImportTable validates and adopts a peer's verdict table; false
	// means keep probing.
	ImportTable(key string, t T) bool
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
	// each. The owner runs them; the Node does not read it.
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
type Config[T any] struct {
	Policy
	// Peers are the other nodes' base URLs.
	Peers []string

	Local Cache[T]
	// Probe asks one peer for its status: the admission fallback probe
	// (nil = none).
	Probe func(peer string) (scheduler.PeerStatus, error)
	// Journal receives every transition: the queue's and the terminal
	// ones (nil = none).
	Journal scheduler.TransitionLog
	Metrics *scheduler.Metrics
	// Now is the clock (nil = time.Now).
	Now func() time.Time
	Hooks
}

// Node is one node's job table. R and T are the result and verdict-table
// artifact types its cache probes fetch.
type Node[R, T any] struct {
	Config[T]
	Queue  *scheduler.Queue
	Gossip *scheduler.Gossip

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // finished job IDs, oldest first, for eviction
	seq       int64
	running   int
	lastProbe time.Time // last admission fallback round
}

// New builds a node over a fresh queue and gossip view.
func New[R, T any](cfg Config[T]) *Node[R, T] {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	n := &Node[R, T]{
		Config: cfg,
		Queue:  scheduler.NewQueue(cfg.QueueDepth),
		Gossip: scheduler.NewGossip(),
		jobs:   make(map[string]*Job),
	}
	n.Queue.Now, n.Gossip.Now = cfg.Now, cfg.Now
	n.Queue.Journal, n.Queue.Metrics = cfg.Journal, cfg.Metrics
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
	if j.ID == "" {
		n.seq++
		j.ID = fmt.Sprintf("job-%d", n.seq)
	}
	if j.Submitted.IsZero() {
		j.Submitted = n.Now()
	}
	j.Status = Queued
	n.jobs[j.ID] = j
	if !n.Queue.Push(&scheduler.Job{ID: j.ID, Spec: j.Spec, Payload: j}) {
		delete(n.jobs, j.ID)
		return false
	}
	return true
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
	if peer, ok := scheduler.IdlestPeer(n.Peers, snap); ok {
		return peer, true
	}
	for _, peer := range n.Peers {
		if st, ok := snap[peer]; ok && st.Err == "" {
			return "", false
		}
	}
	if n.Probe == nil || n.ProbeFanout == 0 || !n.probeAllowed() {
		return "", false
	}
	peers := n.Peers[:min(n.ProbeFanout, len(n.Peers))]
	for _, peer := range peers {
		if st, err := n.Probe(peer); err != nil {
			n.Gossip.RecordErr(peer, err)
		} else {
			n.Gossip.Record(peer, st)
		}
	}
	return scheduler.IdlestPeer(peers, n.Gossip.Snapshot())
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
// the digests a thief could claim, and the result keys it caches.
func (n *Node[R, T]) Status(cacheKeys []string) scheduler.PeerStatus {
	return scheduler.PeerStatus{
		QueueLen:         n.Queue.Len(),
		QueueCap:         n.Queue.Cap(),
		Stealable:        n.Queue.Stealable(),
		StealableDigests: n.Queue.StealableDigests(n.HintKeys),
		CacheKeys:        cacheKeys,
		Seen:             n.Now(),
	}
}

// Begin marks a job popped off the queue as running here.
func (n *Node[R, T]) Begin(qj *scheduler.Job) Job {
	n.mu.Lock()
	defer n.mu.Unlock()
	j := qj.Payload.(*Job)
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
// (cachepolicy.Prober over f, gossip-ordered, bounded fan-out); else the
// run — after adopting a peer's verdict table when this node holds
// none. observe, when set, sees every probe attempt.
func (n *Node[R, T]) Start(k Keys, f cachepolicy.Fetcher[R, T], observe func(peer, kind string, hit bool, start, end time.Time)) (src Source, r R, peer string) {
	if k.Result != "" && n.Local.HasResult(k.Result) {
		return LocalResult, r, ""
	}
	if n.ProbeFanout == 0 || len(n.Peers) == 0 || k.Digest == "" {
		return Run, r, ""
	}
	p := &cachepolicy.Prober[R, T]{Transport: f, Fanout: n.ProbeFanout, Observe: observe}
	view := n.Gossip.Snapshot()
	if k.Result != "" {
		if r, peer, ok := p.ProbeResult(n.Peers, view, k.Result, k.TopK); ok {
			return PeerResult, r, peer
		}
	}
	if k.Table != "" && !n.Local.HasTable(k.Table) {
		p.ProbeTable(n.Peers, view, k.Digest, k.Table, func(t T) bool { return n.Local.ImportTable(k.Table, t) })
	}
	return Run, r, ""
}

// Claim leases the newest stealable job to a thief and marks it running
// elsewhere. It returns the job and the lease deadline.
func (n *Node[R, T]) Claim(thief string) (Job, time.Time, bool) {
	// Claim under the node's lock: a reaper taking back a lease that
	// lapsed at once must find the job marked claimed, not have its
	// requeue overwritten.
	n.mu.Lock()
	defer n.mu.Unlock()
	qj, deadline, ok := n.Queue.Claim(thief, n.Lease)
	if !ok {
		return Job{}, time.Time{}, false
	}
	j := qj.Payload.(*Job)
	j.StolenBy = thief
	n.setStatus(j, Running)
	return *j, deadline, true
}

// Settle finishes a claimed job with its thief's report (errMsg
// non-empty for a failed analysis). A job no longer on lease answers
// scheduler.ErrLeaseExpired: its result is stale, and the requeued run
// is the one that counts.
func (n *Node[R, T]) Settle(id, thief string, sum core.Rendered, errMsg string) (Job, error) {
	qj, ok := n.Queue.Complete(id)
	if !ok {
		return Job{}, fmt.Errorf("job %s: %w", id, scheduler.ErrLeaseExpired)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	j := qj.Payload.(*Job)
	if thief != "" {
		j.StolenBy = thief
	}
	var err error
	if errMsg != "" {
		err = errors.New(errMsg)
	}
	n.finish(j, sum, "", err, "") // the queue logged the settle
	return *j, nil
}

// Finish ends a job this node ran (or failed to recover): the summary
// and the peer whose cache served it, or the error. False when the job
// is gone or already finished.
func (n *Node[R, T]) Finish(id string, sum core.Rendered, cachePeer string, err error) bool {
	op := scheduler.TransitionSettled
	if err != nil {
		op = TransitionFailed
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	j, ok := n.jobs[id]
	return ok && n.finish(j, sum, cachePeer, err, op)
}

// finish is the one place a job turns terminal, exactly once: the
// transition record (op, unless the queue already logged one), the
// status with summary or error, the owner's hooks, retention and
// eviction past MaxJobs. Call with n.mu held.
func (n *Node[R, T]) finish(j *Job, sum core.Rendered, cachePeer string, err error, op string) bool {
	if j.Status == Done || j.Status == Failed {
		return false
	}
	if op != "" {
		n.log(op, j)
	}
	j.Finished = n.Now()
	j.CachePeer = cachePeer
	status := Done
	if err != nil {
		status, j.Error = Failed, err.Error()
	} else {
		j.Rendered = sum
	}
	n.setStatus(j, status)
	if n.Finished != nil {
		n.Finished(j)
	}
	n.order = append(n.order, j.ID)
	for n.MaxJobs > 0 && len(n.order) > n.MaxJobs {
		n.log(TransitionEvicted, n.jobs[n.order[0]])
		delete(n.jobs, n.order[0])
		n.order = n.order[1:]
	}
	return true
}

func (n *Node[R, T]) log(op string, j *Job) {
	if n.Journal != nil {
		n.Journal.Transition(op, &scheduler.Job{ID: j.ID, Spec: j.Spec, Payload: j}, "")
	}
}

// errAbandoned fails a job whose lease expired into a closed queue.
var errAbandoned = errors.New("abandoned: steal lease expired while the server was shutting down")

// Reap requeues every job whose steal lease expired — at the front, so
// a vanished thief costs one lease of latency, never the job — and
// returns how many. A closed queue takes none back: those jobs are
// logged abandoned and failed, so their clients see the loss.
func (n *Node[R, T]) Reap() int {
	now := n.Now()
	expired := n.Queue.TakeExpired(now)
	if len(expired) == 0 {
		return 0
	}
	// Reset each job before Requeue makes it poppable: a worker could
	// otherwise pop and finish it, then see it clobbered back to queued.
	n.mu.Lock()
	for _, qj := range expired {
		j := qj.Payload.(*Job)
		if n.Expired != nil {
			n.Expired(j, now)
		}
		j.StolenBy = ""
		n.setStatus(j, Queued)
	}
	n.mu.Unlock()
	if dropped := n.Queue.Requeue(expired); len(dropped) > 0 {
		n.mu.Lock()
		for _, qj := range dropped {
			n.finish(qj.Payload.(*Job), core.Rendered{}, "", errAbandoned, "")
		}
		n.mu.Unlock()
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
	if s, ok := Seq(j.ID); ok && s > n.seq {
		n.seq = s
	}
}

// Recover queues restored jobs: queued ones at the back in the order
// given, then the ones that were out on a lease at the front, as an
// expired lease would be. It fails and returns those the queue refuses.
func (n *Node[R, T]) Recover(queued, claimed []*Job) (lost []*Job) {
	fail := func(j *Job, err error) {
		n.Finish(j.ID, core.Rendered{}, "", err)
		lost = append(lost, j)
	}
	for _, j := range queued {
		if !n.Queue.Push(&scheduler.Job{ID: j.ID, Spec: j.Spec, Payload: j}) {
			fail(j, fmt.Errorf("job not recovered: queue full after restart (depth %d)", n.Queue.Cap()))
		}
	}
	qjs := make([]*scheduler.Job, len(claimed))
	for i, j := range claimed {
		qjs[i] = &scheduler.Job{ID: j.ID, Spec: j.Spec, Payload: j}
	}
	for _, qj := range n.Queue.Requeue(qjs) {
		fail(qj.Payload.(*Job), errors.New("job not recovered: queue closed during recovery"))
	}
	return lost
}
