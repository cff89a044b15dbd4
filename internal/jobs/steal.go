package jobs

import (
	"sort"
	"time"

	"perfplay/internal/clusterapi"
)

// Stealer is a node's thief-side loop: while the node is idle it probes
// its peers for stealable work, claims a whole job from the best victim,
// and executes it through the execute callback. One job is stolen and
// executed at a time — a stealer exists to soak up idle capacity, not to
// re-create the victim's backlog locally. A victim ships a job as a
// clusterapi.Spec, a content-addressed description, never as in-memory
// state, so a steal is safe to retry and byte-identical to a local run.
//
// Peers, cadence, gossip view, clock, counters and local cache are the
// node's; NewStealer takes only what the node cannot know.
type Stealer[R, T any] struct {
	// Self is this node's advertised base URL, sent with each claim so
	// victims can attribute leases in their diagnostics.
	Self string

	node    *Node[R, T]
	peer    Peer[R, T]
	idle    func() bool
	execute func(victim string, job clusterapi.StolenJob) error
}

// NewStealer builds the node's thief loop. peer carries its probes,
// claims and settles; idle reports whether the node has spare capacity
// (the loop claims only then); execute runs one stolen job end to end —
// analyze and settle with the victim — and an error counts as a failure,
// which the victim's lease makes safe to drop.
func (n *Node[R, T]) NewStealer(self string, peer Peer[R, T], idle func() bool, execute func(victim string, job clusterapi.StolenJob) error) *Stealer[R, T] {
	return &Stealer[R, T]{Self: self, node: n, peer: peer, idle: idle, execute: execute}
}

// Run loops until stop closes, calling Tick once per StealInterval
// (non-positive = one second). Call it on its own goroutine.
// Deterministic drivers (the cluster simulator) skip Run and call Tick
// directly at simulated time.
func (s *Stealer[R, T]) Run(stop <-chan struct{}) {
	interval := s.node.StealInterval
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
func (s *Stealer[R, T]) Tick(stop <-chan struct{}) {
	if !s.idle() {
		s.probeAll(stop)
		return
	}
	for s.idle() {
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
func (s *Stealer[R, T]) probeAll(stop <-chan struct{}) []peerDepth {
	n := s.node
	var depths []peerDepth
	for _, peer := range n.Peers {
		select {
		case <-stop:
			return nil
		default:
		}
		st, ok := n.probe(s.peer, peer)
		n.Metrics.StealProbes.Inc()
		if !ok || st.Stealable == 0 {
			continue
		}
		d := peerDepth{peer: peer, stealable: st.Stealable}
		for _, digest := range st.StealableDigests {
			if n.Local.HasCached(digest) {
				d.hinted = true
				break
			}
		}
		depths = append(depths, d)
	}
	return depths
}

// stealOnce probes every peer, claims from the best victim, and
// executes the claim. Victims advertising a digest this node has cached
// rank first (that steal settles from cache instead of re-running the
// pipeline), then the deepest stealable backlog; remaining ties break
// on peer order for determinism. It reports whether a job was actually
// stolen (the caller's cue to immediately try again).
func (s *Stealer[R, T]) stealOnce(stop <-chan struct{}) bool {
	depths := s.probeAll(stop)
	sort.SliceStable(depths, func(i, j int) bool {
		if depths[i].hinted != depths[j].hinted {
			return depths[i].hinted
		}
		return depths[i].stealable > depths[j].stealable
	})
	m := s.node.Metrics
	for _, d := range depths {
		job, ok, err := s.peer.Claim(d.peer, s.Self)
		if err != nil || !ok {
			continue // someone beat us to it, or the peer went away
		}
		m.StealClaims.Inc()
		if d.hinted {
			m.StealHintedClaims.Inc()
		}
		err = s.execute(d.peer, job)
		m.StealExecuted.Inc()
		if err != nil {
			m.StealFailures.Inc()
		}
		return true
	}
	return false
}
