// Package scheduler is the thief side of perfplayd's work-stealing pool:
// any idle peer can claim a whole queued job from another node (POST
// /jobs/claim), execute it on its own pipeline, and report the finished
// summary back to the victim, so a job submitted to node A completes on
// an idle node B while A's clients keep polling A, and the cluster
// behaves as a symmetric pool instead of a star with one coordinator.
// The victim side, the queue a thief claims from and the lease that
// recovers a job from a silent thief, is internal/jobs.Node.
//
// The package has four pieces:
//
//   - Stealer: the thief-side loop. While its node is idle it probes
//     peers for queue depth (GET /steal), claims from the deepest
//     backlog, and hands each stolen job to an executor callback.
//   - Gossip: the stealer's last-known view of every peer's queue
//     depth, surfaced through the daemon's /healthz for operators.
//   - IdlestPeer: the admission-redirect choice over that view.
//   - Metrics: the steal protocol's counters, thief and victim side.
//
// Every peer call crosses the Transport seam (internal/peerclient in the
// daemon, an in-memory fabric in the simulator): no net/http here.
//
// Jobs are shipped as a clusterapi.Spec — a content-addressed
// description (a workload spec, or a trace digest the thief fetches
// from the victim's corpus) — never as serialized in-memory state, which
// is what makes a steal safe to retry and byte-identical to a local run:
// the thief's pipeline re-derives everything from the same content the
// victim held.
package scheduler
