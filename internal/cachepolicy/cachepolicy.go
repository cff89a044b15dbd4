// Package cachepolicy is the transport-independent policy half of the
// cluster cache layer: probe ordering (gossip-hinted peers first, then
// the idlest), bounded fan-out, degrade-to-local probing, and the
// multi-hop Retry-Peer admission chain. internal/peerclient drives it
// over HTTP; the offline policy lab (internal/clustersim) drives the
// same code over an in-memory virtual-clock fabric, so the simulator's
// sweep results speak for the code production runs.
//
// The package deliberately knows nothing about wire formats: probing
// goes through a Fetcher generic over the result and table artifact
// types, admission through a SubmitFunc, and adapters own fetching,
// decoding, and validating bytes. That lets the simulator instantiate
// the seam over bare cache keys, keeps net/http and the pipeline out of
// this package, and keeps every policy decision — who to ask, how
// many, when to give up — in one testable place.
package cachepolicy

import (
	"sort"
	"time"

	"perfplay/internal/clusterapi"
)

// SubmitHops bounds how many Retry-Peer admission redirects one submit
// follows: peerclient.Client.Submit passes it, and so does the policy
// lab's simulated client.
const SubmitHops = 3

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

// Fetcher is the probe half of the cache transport seam. R and T are
// the result and verdict-table artifact types (*pipeline.WireResult and
// *pipeline.WireTable in the daemon); policy code never opens them.
type Fetcher[R, T any] interface {
	// FetchResult asks one peer for a finished result by cache key. Any
	// error — miss, dead peer, timeout, garbage — means "try the next
	// peer", never "fail the job".
	FetchResult(peer, key string, topK int) (R, error)
	// FetchTable asks one peer for a cached verdict table by table key.
	FetchTable(peer, key string) (T, error)
}

// Prober runs the degrade-to-local cache probe policy over a Fetcher:
// walk ProbeOrder, take the first usable artifact, and treat a miss
// everywhere as the normal path. It never returns an error — every
// failure on this path degrades to local execution.
type Prober[R, T any] struct {
	Transport Fetcher[R, T]
	// Fanout bounds peers probed per call (0 = unbounded).
	Fanout int
	// Observe, when non-nil, is invoked after every probe attempt with
	// the peer, the artifact kind ("result" or "table"), whether the
	// attempt produced a usable artifact, and its wall-clock bounds —
	// the daemon's counter/span hook. Virtual-clock callers leave it
	// nil; the clock is never read when unobserved.
	Observe func(peer, kind string, hit bool, start, end time.Time)
}

// ProbeResult asks ranked peers for a finished result matching key,
// returning the first hit and the peer that served it. ok=false — a
// miss everywhere — is the normal path, not a failure.
func (p *Prober[R, T]) ProbeResult(peers []string, view map[string]clusterapi.PeerStatus, key string, topK int) (R, string, bool) {
	for _, peer := range ProbeOrder(peers, view, func(st clusterapi.PeerStatus) bool { return st.HintsKey(key) }, p.Fanout) {
		start := p.now()
		r, err := p.Transport.FetchResult(peer, key, topK)
		p.observe(peer, "result", err == nil, start)
		if err != nil {
			continue // miss, dead peer, or garbage: the local run is always correct
		}
		return r, peer, true
	}
	var zero R
	return zero, "", false
}

// ProbeTable asks ranked peers for the verdict table named by key,
// handing each fetched table to accept (validate + adopt; false means
// keep probing). Probes are hint-matched by trace digest, not by the
// table key: gossiped hints are result-cache keys, and a peer hinting
// any result for this trace ran the identify pass that built the table.
// It returns the peer whose table was accepted.
func (p *Prober[R, T]) ProbeTable(peers []string, view map[string]clusterapi.PeerStatus, digest, key string, accept func(T) bool) (string, bool) {
	for _, peer := range ProbeOrder(peers, view, func(st clusterapi.PeerStatus) bool { return st.HintsDigest(digest) }, p.Fanout) {
		start := p.now()
		t, err := p.Transport.FetchTable(peer, key)
		hit := err == nil && accept(t)
		p.observe(peer, "table", hit, start)
		if hit {
			return peer, true
		}
	}
	return "", false
}

// now reads the wall clock only when someone is observing, keeping the
// virtual-clock simulator free of real-time reads.
func (p *Prober[R, T]) now() time.Time {
	if p.Observe == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *Prober[R, T]) observe(peer, kind string, hit bool, start time.Time) {
	if p.Observe != nil {
		p.Observe(peer, kind, hit, start, time.Now())
	}
}
