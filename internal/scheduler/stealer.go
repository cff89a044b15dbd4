package scheduler

import (
	"sort"
	"sync"
	"time"

	"perfplay/internal/clusterapi"
)

// Gossip is a node's last-known view of its peers' queue depths,
// updated by the stealer's probes and served through /healthz so an
// operator (or another scheduler) can see where the cluster's backlog
// lives without touching every node.
type Gossip struct {
	// Now overrides the wall clock for Seen stamps (nil = time.Now).
	// Set before the view is shared across goroutines.
	Now func() time.Time

	mu    sync.Mutex
	peers map[string]clusterapi.PeerStatus
}

// NewGossip returns an empty view.
func NewGossip() *Gossip { return &Gossip{peers: make(map[string]clusterapi.PeerStatus)} }

func (g *Gossip) now() time.Time {
	if g.Now != nil {
		return g.Now()
	}
	return time.Now()
}

// Record stores one successful probe observation and clears any stale
// Err from a previous failed probe. A zero Seen is stamped with the
// view's clock; a caller that already stamped observation time (the
// stealer, with its own injectable clock) keeps its stamp.
func (g *Gossip) Record(peer string, st clusterapi.PeerStatus) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st.Seen.IsZero() {
		st.Seen = g.now()
	}
	st.Err = ""
	g.peers[peer] = st
}

// RecordErr marks a peer's last probe as failed, keeping the previous
// counts visible but flagged stale.
func (g *Gossip) RecordErr(peer string, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.peers[peer]
	st.Err = err.Error()
	st.Seen = g.now()
	g.peers[peer] = st
}

// Snapshot copies the current view.
func (g *Gossip) Snapshot() map[string]clusterapi.PeerStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]clusterapi.PeerStatus, len(g.peers))
	for k, v := range g.peers {
		out[k] = v
	}
	return out
}

// StealerStats counts the thief side's lifetime activity.
type StealerStats struct {
	// Probes counts probe rounds (one per peer per idle tick).
	Probes int `json:"probes"`
	// Claims counts successful claims.
	Claims int `json:"claims"`
	// Executed counts stolen jobs whose executor callback returned,
	// success or not.
	Executed int `json:"executed"`
	// Failures counts executor callbacks that returned an error —
	// typically a result report that could not reach the victim (a
	// victim crash mid-steal); the victim's lease recovers the job.
	Failures int `json:"failures"`
	// HintedClaims counts claims aimed by cache-hint matching: the
	// victim advertised a stealable digest this node holds cached
	// artifacts for, promising a cheap (possibly zero-replay) steal.
	HintedClaims int `json:"hinted_claims,omitempty"`
}

// Stealer is the thief-side loop: while its node is idle it probes
// peers for stealable work, claims a whole job from the deepest
// backlog, and executes it through the Execute callback. One job is
// stolen and executed at a time — a stealer exists to soak up idle
// capacity, not to re-create the victim's backlog locally.
//
// All communication goes through Transport, so the same loop runs over
// HTTP in the daemon and over an in-memory fabric in the simulator.
type Stealer struct {
	// Self is this node's advertised base URL, sent with each claim so
	// victims can attribute leases in their diagnostics.
	Self string
	// Peers are victim base URLs ("http://host:8080").
	Peers []string
	// Interval is the idle poll cadence for Run (0 = 1s).
	Interval time.Duration
	// Idle reports whether this node currently has spare capacity; the
	// loop only claims work when it does.
	Idle func() bool
	// Execute runs one stolen job end to end — analyze and report the
	// result back to the victim. An error counts as a failure; the
	// victim's lease makes it safe to just drop the job.
	Execute func(victim string, job clusterapi.StolenJob) error
	// Gossip, when set, receives every probe observation.
	Gossip *Gossip
	// Transport carries probes and claims (required).
	Transport Transport
	// HasCached, when set, reports whether this node holds cached
	// artifacts for a trace digest. Victims advertise the digests of
	// their stealable jobs; a victim advertising a digest this node has
	// cached is preferred over a merely deeper one — that steal settles
	// from cache instead of re-running the pipeline.
	HasCached func(digest string) bool
	// Metrics, when set before Run, hosts the thief-side counters on a
	// shared registry; otherwise a private registry is created lazily,
	// so Stats always has series to read.
	Metrics *Metrics
	// Now overrides the wall clock for gossip Seen stamps (nil =
	// time.Now). Set before Run.
	Now func() time.Time

	mu sync.Mutex
}

func (s *Stealer) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// metrics returns the instrument set, creating a private one on first
// use if the owner never supplied a shared registry.
func (s *Stealer) metrics() *Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Metrics == nil {
		s.Metrics = NewMetrics(nil)
	}
	return s.Metrics
}

// Stats returns a copy of the lifetime counters, read straight off the
// telemetry series; the policy lab's report prints them.
func (s *Stealer) Stats() StealerStats {
	m := s.metrics()
	return StealerStats{
		Probes:       int(m.StealProbes.Int()),
		Claims:       int(m.StealClaims.Int()),
		Executed:     int(m.StealExecuted.Int()),
		Failures:     int(m.StealFailures.Int()),
		HintedClaims: int(m.StealHintedClaims.Int()),
	}
}

// Run loops until stop closes, calling Tick once per interval. Call it
// on its own goroutine. Deterministic drivers (the cluster simulator)
// skip Run and call Tick directly at simulated time.
func (s *Stealer) Run(stop <-chan struct{}) {
	interval := s.Interval
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		s.Tick(stop)
	}
}

// Tick runs one scheduling round: a busy node probes once purely to
// refresh its gossip (steal-aware admission consults this view to pick
// the Retry-Peer redirect target, and a node is most in need of a
// fresh view exactly when it is too busy to steal); an idle node
// steals greedily while idle work keeps succeeding, so a long victim
// backlog drains at execution speed, not poll cadence.
func (s *Stealer) Tick(stop <-chan struct{}) {
	if s.Idle != nil && !s.Idle() {
		s.probeAll(stop)
		return
	}
	for s.Idle != nil && s.Idle() {
		if !s.stealOnce(stop) {
			break
		}
	}
}

// peerDepth is one probed peer's stealable backlog.
type peerDepth struct {
	peer      string
	stealable int
	// hinted marks a victim advertising a stealable digest this node
	// has cached artifacts for.
	hinted bool
}

// probeAll probes every peer once, recording each observation (or
// failure) in the gossip view, and returns the peers with stealable
// work. A stop signal mid-round returns nil — never a partial list —
// so a shutting-down caller cannot go on to claim a job it will never
// finish.
func (s *Stealer) probeAll(stop <-chan struct{}) []peerDepth {
	m := s.metrics()
	var depths []peerDepth
	for _, peer := range s.Peers {
		select {
		case <-stop:
			return nil
		default:
		}
		st, err := s.Transport.Probe(peer)
		m.StealProbes.Inc()
		if err != nil {
			m.GossipUpdates.With("err").Inc()
			if s.Gossip != nil {
				s.Gossip.RecordErr(peer, err)
			}
			continue
		}
		m.GossipUpdates.With("ok").Inc()
		if s.Gossip != nil {
			st.Seen = s.now()
			s.Gossip.Record(peer, st)
		}
		if st.Stealable > 0 {
			d := peerDepth{peer: peer, stealable: st.Stealable}
			if s.HasCached != nil {
				for _, digest := range st.StealableDigests {
					if s.HasCached(digest) {
						d.hinted = true
						break
					}
				}
			}
			depths = append(depths, d)
		}
	}
	return depths
}

// stealOnce probes every peer, claims from the best victim, and
// executes the claim. Victims advertising a cache-hinted digest rank
// first (that steal is cheap — the artifacts are already here), then
// the deepest stealable backlog; remaining ties break on peer order
// for determinism. It reports whether a job was actually stolen (the
// caller's cue to immediately try again).
func (s *Stealer) stealOnce(stop <-chan struct{}) bool {
	depths := s.probeAll(stop)
	sort.SliceStable(depths, func(i, j int) bool {
		if depths[i].hinted != depths[j].hinted {
			return depths[i].hinted
		}
		return depths[i].stealable > depths[j].stealable
	})
	m := s.metrics()
	for _, d := range depths {
		job, ok, err := s.Transport.Claim(d.peer, s.Self)
		if err != nil || !ok {
			continue // someone beat us to it, or the peer went away
		}
		m.StealClaims.Inc()
		if d.hinted {
			m.StealHintedClaims.Inc()
		}
		err = s.Execute(d.peer, job)
		m.StealExecuted.Inc()
		if err != nil {
			m.StealFailures.Inc()
		}
		return true
	}
	return false
}
