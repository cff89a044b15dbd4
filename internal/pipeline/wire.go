package pipeline

import (
	"encoding/json"
	"fmt"
	"io"

	"perfplay/internal/core"
	"perfplay/internal/ulcp"
)

// This file is the pipeline's cluster-cache surface: cached summaries
// and verdict tables exported in a JSON-serializable wire form, so peer
// nodes can import a finished analysis by cache key instead of
// re-running the whole replay pipeline. The exchange is only sound
// because cache keys are stable content addresses — a digest-keyed key
// names the trace bytes, not a node-local pointer — and because the
// determinism contract makes the exporter's artifacts byte-identical to
// what the importer's own run would have produced.

// WireResult is the cross-node serialization of one cached result: the
// key and depth it answers for, plus the summary rendered at that depth
// — the same core.Rendered a local job record holds, so a peer settles
// an identical job with zero replays and identical JSON. Only the
// exporter renders; an importer never re-renders at another depth.
type WireResult struct {
	// Key echoes the result-cache key the exporter served, so an
	// importer can reject a mismatched or misrouted response.
	Key string `json:"key"`
	// TopK is the report depth Report was rendered at.
	TopK int `json:"top"`
	core.Rendered
}

// ReadWireResult decodes one peer-supplied wire result and validates it
// against the key and depth it was requested for. Decoding is strict: a
// body with a field this shape does not have — such as the pair list
// ("ulcp") older peers shipped in place of the "ulcps" count — is an
// error, so a peer on another version reads as a miss rather than as a
// summary with zeroed fields.
func ReadWireResult(r io.Reader, key string, topK int) (*WireResult, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var w WireResult
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("pipeline: wire result: %w", err)
	}
	if err := w.Validate(key, topK); err != nil {
		return nil, err
	}
	return &w, nil
}

// Validate sanity-checks an imported wire result against the key and
// depth it was requested for. A peer answering for a different key (or
// rendering at the wrong depth) must be treated as a miss, never
// imported — a wrong report here would break the byte-identical
// contract silently.
func (w *WireResult) Validate(key string, topK int) error {
	topK = depthOrDefault(topK)
	switch {
	case w.Key != key:
		return fmt.Errorf("pipeline: wire result for key %q, requested %q", w.Key, key)
	case w.TopK != topK:
		return fmt.Errorf("pipeline: wire result rendered at top %d, requested %d", w.TopK, topK)
	case w.Report == "":
		return fmt.Errorf("pipeline: wire result carries no report")
	}
	return nil
}

// Export serves one cached result in wire form, rendered from the
// cached summary at the requested TopK (TopK is outside the cache key,
// so the exporter renders at whatever depth the prober's job asked
// for). ok=false is a cache miss.
func (p *Pipeline) Export(key string, topK int) (*WireResult, bool) {
	sum, ok := p.cache.get(key)
	if !ok {
		return nil, false
	}
	topK = depthOrDefault(topK)
	return &WireResult{Key: key, TopK: topK, Rendered: sum.At(topK)}, true
}

// WireTable wraps an exported verdict table with the key it was served
// under, so importers can reject a misrouted or mismatched response
// exactly like WireResult.Validate does for results — an unverified
// table with wrong verdicts would silently break the byte-identical
// contract of every run that consults it.
type WireTable struct {
	Key   string             `json:"key"`
	Table *ulcp.VerdictTable `json:"table"`
}

// Validate checks an imported wire table against the key it was
// requested under.
func (w *WireTable) Validate(key string) error {
	switch {
	case w.Key != key:
		return fmt.Errorf("pipeline: wire table for key %q, requested %q", w.Key, key)
	case w.Table == nil || w.Table.Verdicts == nil:
		return fmt.Errorf("pipeline: wire table carries no verdicts")
	}
	return nil
}

// ExportTable serves one cached verdict table (refreshing its recency).
// The table itself is already wire-shaped, so the only addition is the
// key echo.
func (p *Pipeline) ExportTable(key string) (*WireTable, bool) {
	t, ok := p.tables.get(key)
	if !ok {
		return nil, false
	}
	return &WireTable{Key: key, Table: t}, true
}

// ImportTable adopts a verdict table computed elsewhere under the given
// key. The caller vouches that the key was derived from the same trace
// — tables are deterministic functions of it, so a correctly-keyed
// import is indistinguishable from a local build. Nil or verdict-less
// tables are rejected.
func (p *Pipeline) ImportTable(key string, t *ulcp.VerdictTable) bool {
	if p.tables == nil || key == "" || t == nil || t.Verdicts == nil {
		return false
	}
	p.tables.put(key, t)
	return true
}

// CacheKeyFor reports the normalized result-cache key for a request,
// and whether the request is cacheable at all (and therefore worth
// probing peers for).
func (p *Pipeline) CacheKeyFor(req Request) (string, bool) {
	if p.cache == nil {
		return "", false
	}
	req = req.normalize()
	if !req.cacheable() {
		return "", false
	}
	return req.CacheKey(), true
}

// TableKeyFor reports the verdict-table cache key for a request ("",
// false for pointer-identified inputs that cannot be shared).
func (p *Pipeline) TableKeyFor(req Request) (string, bool) {
	if p.tables == nil {
		return "", false
	}
	key := tableKey(req.normalize())
	return key, key != ""
}

// HasResult reports whether a result-cache key is populated, without
// touching its recency.
func (p *Pipeline) HasResult(key string) bool { return p.cache.peek(key) }

// HasTable reports whether a verdict-table key is populated, without
// touching its recency.
func (p *Pipeline) HasTable(key string) bool { return p.tables.peek(key) }

// RecentResultKeys lists up to n result-cache keys, most recent first —
// the cache-population hints gossiped to peers.
func (p *Pipeline) RecentResultKeys(n int) []string { return p.cache.keys(n) }

// HasDigestCached reports whether any cached artifact — a finished
// result or a verdict table — derives from the given trace digest.
// Both caches key by leading content digest, so this is a prefix probe
// over the key sets; recency is untouched. The stealer uses it for
// hint-driven victim ordering: stealing a job whose digest is cached
// here settles from cache instead of re-running the pipeline.
func (p *Pipeline) HasDigestCached(digest string) bool {
	if digest == "" {
		return false
	}
	prefix := digest + "|"
	return p.cache.hasKeyPrefix(prefix) || p.tables.hasKeyPrefix(prefix)
}
