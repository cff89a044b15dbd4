package jobs

import "perfplay/internal/telemetry"

// Metrics bundles a node's steal-protocol instruments: its Stealer's
// thief-side activity, its lease lifecycle and its gossip writes, in one
// family set. New backs a node without one with a private registry, so
// the counters are readable on nodes that never export /metrics.
type Metrics struct {
	// Thief side.
	StealProbes       *telemetry.Counter // probe rounds issued
	StealClaims       *telemetry.Counter // successful claims
	StealExecuted     *telemetry.Counter // stolen jobs whose executor returned
	StealFailures     *telemetry.Counter // executor returns that errored
	StealHintedClaims *telemetry.Counter // claims aimed by cache-hint matches

	// Victim side (lease lifecycle on the job node).
	LeasesGranted *telemetry.Counter // Claim handed a job to a thief
	LeasesSettled *telemetry.Counter // Settle accepted a thief's result
	LeasesExpired *telemetry.Counter // Reap recovered a job

	// Gossip writes, labeled by probe result.
	GossipUpdates *telemetry.CounterVec // result=ok|err
}

// NewMetrics registers the perfplay_scheduler_* families on reg (a nil
// reg uses a private registry).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Metrics{
		StealProbes: reg.NewCounter("perfplay_scheduler_steal_probes_total",
			"Peer queue probes issued by this node's stealer."),
		StealClaims: reg.NewCounter("perfplay_scheduler_steal_claims_total",
			"Jobs successfully claimed from peers."),
		StealExecuted: reg.NewCounter("perfplay_scheduler_steal_executed_total",
			"Stolen jobs executed to completion (success or failure)."),
		StealFailures: reg.NewCounter("perfplay_scheduler_steal_failures_total",
			"Stolen-job executions that returned an error."),
		StealHintedClaims: reg.NewCounter("perfplay_scheduler_steal_hinted_claims_total",
			"Claims aimed at a victim by a cache-hint match on a stealable digest."),
		LeasesGranted: reg.NewCounter("perfplay_scheduler_leases_granted_total",
			"Steal leases handed out by this node's queue."),
		LeasesSettled: reg.NewCounter("perfplay_scheduler_leases_settled_total",
			"Steal leases settled by a reported result."),
		LeasesExpired: reg.NewCounter("perfplay_scheduler_leases_expired_total",
			"Steal leases that expired and re-enqueued their job."),
		GossipUpdates: reg.NewCounterVec("perfplay_scheduler_gossip_updates_total",
			"Gossip view updates by probe result.", "result"),
	}
}
