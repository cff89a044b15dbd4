package scheduler

import (
	"errors"

	"perfplay/internal/clusterapi"
)

// ErrLeaseExpired is returned by Transport.Settle when the victim
// answered that the job is no longer on lease — the lease expired and
// the job was re-enqueued there, so the caller's result is stale and
// must be discarded (determinism makes that safe: the victim's re-run
// produces the identical summary).
var ErrLeaseExpired = errors.New("job lease expired on victim")

// Transport carries the steal protocol to a peer. The policy code
// (Stealer, admission's idlest-peer selection, the cluster simulator)
// speaks only this interface; internal/peerclient is the HTTP
// implementation, and clustersim substitutes an in-memory one so the
// identical policy code runs deterministically offline.
type Transport interface {
	// Probe asks one peer for its queue and cache status. The
	// implementation must clear the peer's self-stamped Seen —
	// observation time is the observer's business.
	Probe(peer string) (clusterapi.PeerStatus, error)
	// Claim attempts to take one whole job from a peer on a lease.
	// ok=false with a nil error means the peer had nothing stealable.
	Claim(peer, thief string) (clusterapi.StolenJob, bool, error)
	// Settle reports a stolen job's outcome back to its victim.
	// ErrLeaseExpired (possibly wrapped) means the victim re-owns the
	// job and discarded the result.
	Settle(victim, jobID string, res clusterapi.StealResult) error
}

// IdlestPeer picks the best admission-redirect (or load-shedding)
// target from a gossip view: the healthy peer with the shortest known
// queue that is not itself full. Peers missing from the view, peers
// whose last probe failed, and peers at their admission cap are all
// skipped — redirecting a submitter into another full queue would just
// bounce them around the cluster. ok=false means no peer is known to
// have room. Shared by the daemon's steal-aware admission and the
// cluster simulator, so tuning runs exercise the production policy.
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
