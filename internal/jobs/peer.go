package jobs

import (
	"errors"
	"sort"
	"sync"
	"time"

	"perfplay/internal/clusterapi"
)

// Peer carries every call one node makes on another: the status probe
// behind gossip, the admission fallback and the steal round, the steal
// protocol's claim and settle, and the cache fetches of a job's start.
// internal/peerclient is the HTTP implementation; internal/clustersim
// substitutes an in-memory one, so the same node code runs over both.
// R and T are the result and verdict-table artifact types
// (*pipeline.WireResult and *pipeline.WireTable in the daemon); the node
// never opens them.
type Peer[R, T any] interface {
	// Probe asks one peer for its queue and cache status.
	Probe(peer string) (clusterapi.PeerStatus, error)
	// Claim attempts to take one whole job from a peer on a lease.
	// ok=false with a nil error means the peer had nothing stealable.
	Claim(peer, thief string) (clusterapi.StolenJob, bool, error)
	// Settle reports a stolen job's outcome back to its victim.
	// ErrLeaseExpired (possibly wrapped) means the victim re-owns the
	// job and discarded the result.
	Settle(victim, jobID string, res clusterapi.StealResult) error
	// FetchResult asks one peer for a finished result by cache key. Any
	// error — miss, dead peer, timeout, garbage — means "try the next
	// peer", never "fail the job".
	FetchResult(peer, key string, topK int) (R, error)
	// FetchTable asks one peer for a cached verdict table by table key.
	FetchTable(peer, key string) (T, error)
}

// ErrLeaseExpired is what Settle answers, and Peer.Settle returns, when
// the job is no longer on lease: the lease expired and the job was
// requeued on its victim, so the thief's result is stale and is
// discarded (determinism makes that safe: the victim's re-run produces
// the identical summary).
var ErrLeaseExpired = errors.New("job lease expired on victim")

// Gossip is a node's last-known view of its peers' queue depths and
// cache hints, written by every status probe the node makes and served
// through /healthz, so an operator can see where the cluster's backlog
// lives without touching every node. Each entry's Seen is the node's
// clock at observation, never the peer's own stamp.
type Gossip struct {
	now   func() time.Time
	mu    sync.Mutex
	peers map[string]clusterapi.PeerStatus
}

func newGossip(now func() time.Time) *Gossip {
	return &Gossip{now: now, peers: make(map[string]clusterapi.PeerStatus)}
}

// Record stores one successful probe observation, stamped now, and
// clears any stale Err from a previous failed probe.
func (g *Gossip) Record(peer string, st clusterapi.PeerStatus) {
	g.mu.Lock()
	defer g.mu.Unlock()
	st.Seen = g.now()
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

// probe asks one peer for its status through p and records the answer,
// or the error, in the gossip view; ok=false means the probe failed.
func (n *Node[R, T]) probe(p Peer[R, T], peer string) (st clusterapi.PeerStatus, ok bool) {
	st, err := p.Probe(peer)
	if err != nil {
		n.Metrics.GossipUpdates.With("err").Inc()
		n.Gossip.RecordErr(peer, err)
		return st, false
	}
	n.Metrics.GossipUpdates.With("ok").Inc()
	n.Gossip.Record(peer, st)
	return st, true
}

// IdlestPeer picks the best admission-redirect (or load-shedding)
// target from a gossip view: the healthy peer with the shortest known
// queue that is not itself full. Peers missing from the view, peers
// whose last probe failed, and peers at their admission cap are all
// skipped — redirecting a submitter into another full queue would just
// bounce them around the cluster. ok=false means no peer is known to
// have room.
func IdlestPeer(peers []string, view map[string]clusterapi.PeerStatus) (string, bool) {
	var best string
	bestLen, found := 0, false
	for _, peer := range peers {
		st, ok := view[peer]
		if !ok || st.Err != "" {
			continue
		}
		if st.QueueCap > 0 && st.QueueLen >= st.QueueCap {
			continue // full too; not a valid redirect target
		}
		if !found || st.QueueLen < bestLen {
			best, bestLen, found = peer, st.QueueLen, true
		}
	}
	return best, found
}

// ProbeOrder ranks peers for one cache probe: peers whose gossiped
// hints satisfy the matcher first, then known-healthy peers by queue
// depth (idlest first — most likely to answer fast), then peers the
// gossip has never seen or whose last probe failed, in config order;
// bounded to fanout entries when fanout > 0. Failed-probe peers rank
// with the unseen, not the healthy — their counts are stale, and a dead
// peer sorted ahead of a live cache holder would burn a probe timeout
// on the job-execution hot path (or squeeze the holder out of the
// fan-out altogether).
func ProbeOrder(peers []string, view map[string]clusterapi.PeerStatus, hinted func(clusterapi.PeerStatus) bool, fanout int) []string {
	out := append([]string(nil), peers...)
	sort.SliceStable(out, func(i, j int) bool {
		si, iok := view[out[i]]
		sj, jok := view[out[j]]
		hi := iok && si.Err == "" && hinted(si)
		hj := jok && sj.Err == "" && hinted(sj)
		if hi != hj {
			return hi
		}
		ki := iok && si.Err == ""
		kj := jok && sj.Err == ""
		if ki != kj {
			return ki
		}
		return ki && si.QueueLen < sj.QueueLen
	})
	if fanout > 0 && len(out) > fanout {
		out = out[:fanout]
	}
	return out
}

// Observer sees one cache probe attempt: the peer, the artifact kind
// ("result" or "table"), whether it produced a usable artifact, and its
// wall-clock bounds — the daemon's counter and span hook.
type Observer func(peer, kind string, hit bool, start, end time.Time)

// probeResult walks ProbeOrder over the node's peers, hint-matched by
// result key, and returns the first finished result a peer serves and
// that peer. ok=false — a miss everywhere — is the normal path, not a
// failure: every error on it degrades to the local run.
func (n *Node[R, T]) probeResult(p Peer[R, T], view map[string]clusterapi.PeerStatus, key string, topK int, observe Observer) (r R, peer string, ok bool) {
	for _, peer := range ProbeOrder(n.Peers, view, func(st clusterapi.PeerStatus) bool { return st.HintsKey(key) }, n.ProbeFanout) {
		start := observe.now()
		r, err := p.FetchResult(peer, key, topK)
		observe.see(peer, "result", err == nil, start)
		if err != nil {
			continue // miss, dead peer, or garbage: the local run is always correct
		}
		return r, peer, true
	}
	return r, "", false
}

// probeTable walks ProbeOrder for the verdict table named by key,
// handing each fetched table to the local cache's ImportTable (false
// means keep probing). Probes are hint-matched by trace digest, not by
// the table key: gossiped hints are result-cache keys, and a peer
// hinting any result for this trace ran the identify pass that built
// the table. It returns the peer whose table was adopted.
func (n *Node[R, T]) probeTable(p Peer[R, T], view map[string]clusterapi.PeerStatus, digest, key string, observe Observer) (string, bool) {
	for _, peer := range ProbeOrder(n.Peers, view, func(st clusterapi.PeerStatus) bool { return st.HintsDigest(digest) }, n.ProbeFanout) {
		start := observe.now()
		t, err := p.FetchTable(peer, key)
		hit := err == nil && n.Local.ImportTable(key, t)
		observe.see(peer, "table", hit, start)
		if hit {
			return peer, true
		}
	}
	return "", false
}

// now reads the wall clock only when someone is observing, keeping the
// virtual-clock simulator free of real-time reads.
func (o Observer) now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

func (o Observer) see(peer, kind string, hit bool, start time.Time) {
	if o != nil {
		o(peer, kind, hit, start, time.Now())
	}
}
