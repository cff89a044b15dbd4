// Package scheduler is the cluster-level job scheduler behind
// perfplayd's work-stealing pool. It turns the daemon's bounded
// pending-job queue into a *stealable* queue: any idle peer can claim a
// whole queued job (POST /jobs/claim), execute it on its own pipeline,
// and report the finished summary back to the victim — so a job
// submitted to node A completes on an idle node B while A's clients
// keep polling A, and the cluster behaves as a symmetric pool instead
// of a star with one coordinator.
//
// The package has three pieces:
//
//   - Queue: a bounded FIFO whose owner pops from the front while
//     thieves claim from the back, with lease-based crash recovery — a
//     claimed job whose thief never reports is re-enqueued at the front
//     when its lease expires, so a thief crash costs latency, never the
//     job.
//   - Stealer: the thief-side loop. While its node is idle it probes
//     peers for queue depth (GET /steal), claims from the deepest
//     backlog, and hands each stolen job to an executor callback.
//   - Gossip: the stealer's last-known view of every peer's queue
//     depth, surfaced through the daemon's /healthz for operators.
//
// Every peer call crosses the Transport seam (internal/peerclient in the
// daemon, an in-memory fabric in the simulator): no net/http here.
//
// Jobs are shipped as a Spec — a content-addressed description (a
// workload spec, or a trace digest the thief fetches from the victim's
// corpus) — never as serialized in-memory state, which is what makes a
// steal safe to retry and byte-identical to a local run: the thief's
// pipeline re-derives everything from the same content the victim held.
package scheduler

import "perfplay/internal/clusterapi"

// The wire types live in internal/clusterapi so transports (HTTP and
// simulated) and the daemon share one vocabulary; the aliases keep
// scheduler.Spec et al. valid for the packages that grew up on them.
type (
	// Spec is the wire-shippable description of one whole analysis job.
	Spec = clusterapi.Spec
	// StolenJob is what a successful claim hands the thief.
	StolenJob = clusterapi.StolenJob
	// PeerStatus is one gossip entry: a peer's queue depth and cache
	// population as last observed by this node's stealer.
	PeerStatus = clusterapi.PeerStatus
)

// Job is one unit of queued work: a stable ID, the wire spec (zero for
// local-only jobs), and an opaque owner-side payload (the daemon keeps
// its *job record there).
type Job struct {
	ID      string
	Spec    Spec
	Payload any
}
