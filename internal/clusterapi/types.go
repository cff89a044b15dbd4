// Package clusterapi holds the wire types spoken between perfplayd
// nodes — job specs, steal-protocol bodies, gossip status — and the
// documented error envelope every route returns. It exists so the
// policy packages (internal/scheduler, internal/pipeline) and the
// transports that carry them (internal/peerclient, the clustersim
// in-memory transport) can share one vocabulary without the policy code
// importing net/http.
package clusterapi

import (
	"encoding/json"
	"strings"
	"time"
)

// Spec is the wire-shippable description of one whole analysis job —
// everything a thief needs to reproduce the job's output bit-for-bit on
// its own pipeline. Exactly one of App or TraceDigest identifies the
// input: a registered workload name, or the content digest of a trace
// stored in the victim's corpus (the thief fetches the blob by digest
// when its own corpus misses it, verifying the hash on arrival).
//
// A zero Spec names no input and is not stealable. perfplayd admits
// none.
type Spec struct {
	// App names a registered workload (mutually exclusive with
	// TraceDigest).
	App string `json:"app,omitempty"`
	// TraceDigest is the corpus content address ("sha256:...") of the
	// job's trace. The victim serving the claim is always a valid
	// source for the blob (GET /traces/{digest}).
	TraceDigest string `json:"trace,omitempty"`
	// Threads, Input, Scale and Seed parameterize workload recording;
	// they are inert for trace jobs but ship anyway so the thief's
	// cache keys match the victim's.
	Threads int     `json:"threads,omitempty"`
	Input   int     `json:"input,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// TopK, Schemes and Races are the reporting options.
	TopK    int  `json:"top,omitempty"`
	Schemes bool `json:"schemes,omitempty"`
	Races   bool `json:"races,omitempty"`
}

// Stealable reports whether the spec describes a job a peer could
// reproduce — i.e. whether it names a workload or a stored trace.
func (s Spec) Stealable() bool { return s.App != "" || s.TraceDigest != "" }

// StolenJob is what a successful claim hands the thief: the victim's
// job ID (the thief reports the result back under it) and the spec to
// execute.
type StolenJob struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// LeaseMS is the victim's lease in milliseconds: the thief must
	// report a result within it or the victim re-runs the job itself.
	LeaseMS int64 `json:"lease_ms"`
	// Span is the victim's claim span: the thief parents the spans it
	// records onto it and ships them back in the settle, so the stolen
	// execution lands on the job's timeline on the victim.
	Span string `json:"span_id,omitempty"`
}

// PeerStatus is one gossip entry: a peer's queue depth and cache
// population as last observed by this node's stealer.
type PeerStatus struct {
	// QueueLen counts the peer's queued (unclaimed) jobs.
	QueueLen int `json:"queue_len"`
	// QueueCap is the peer's admission bound; QueueLen >= QueueCap
	// means the peer would 503 a submit right now. Zero means the peer
	// predates the field (unknown).
	QueueCap int `json:"queue_cap,omitempty"`
	// Stealable counts how many queued jobs a thief could claim.
	Stealable int `json:"stealable"`
	// StealableDigests are the trace digests of the peer's stealable
	// queued jobs, newest first (the claim order), bounded by the
	// victim. A thief holding cached artifacts for one of these digests
	// can steal a zero-replay job; advisory and racy like every hint —
	// the job may be popped or claimed by the time the thief arrives.
	StealableDigests []string `json:"stealable_digests,omitempty"`
	// CacheKeys are the peer's most recently used result-cache keys —
	// cache-population hints that let a cluster cache probe target the
	// node most likely to hold a key. Advisory and possibly stale: a
	// hinted key may have been evicted by the time it is probed, and
	// the prober must treat a 404 as an ordinary miss.
	CacheKeys []string `json:"cache_keys,omitempty"`
	// Seen is when this observation was made.
	Seen time.Time `json:"seen"`
	// Err is the probe failure, if the last probe failed (the counts
	// are then stale).
	Err string `json:"err,omitempty"`
}

// HintsKey reports whether the peer's gossiped cache hints include the
// given cache key.
func (st PeerStatus) HintsKey(key string) bool {
	for _, k := range st.CacheKeys {
		if k == key {
			return true
		}
	}
	return false
}

// HintsDigest reports whether any gossiped cache key belongs to the
// given content digest (cache keys lead with their source digest).
// Useful for artifacts keyed more coarsely than results — a peer
// hinting *any* result for a trace ran the identify pass and therefore
// holds that trace's verdict table, whatever reporting flags its job
// used.
func (st PeerStatus) HintsDigest(digest string) bool {
	for _, k := range st.CacheKeys {
		if strings.HasPrefix(k, digest+"|") {
			return true
		}
	}
	return false
}

// StealResult is the wire body a thief POSTs back to the victim
// (POST /jobs/{id}/result) when a stolen job finishes. Summary stays
// raw bytes at this layer: its schema belongs to the daemon's report
// types, and the transport only carries it.
type StealResult struct {
	// Thief is the reporting node's advertised base URL.
	Thief string `json:"thief"`
	// Error is the execution failure, empty on success.
	Error string `json:"error,omitempty"`
	// Summary is the finished job summary (daemon jobSummary JSON),
	// present exactly when Error is empty.
	Summary json.RawMessage `json:"summary,omitempty"`
	// Spans are the thief-side telemetry spans recorded during the
	// stolen execution (a telemetry.Span array), grafted onto the
	// victim's job timeline.
	Spans json.RawMessage `json:"spans,omitempty"`
}
