package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"perfplay/internal/core"
	"perfplay/internal/corpus"
	"perfplay/internal/sim"
	"perfplay/internal/telemetry"
	"perfplay/internal/ulcp"
	"perfplay/internal/workload"
)

// cacheRequests scrapes perfplay_pipeline_cache_requests_total off reg,
// keyed "cache/outcome".
func cacheRequests(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text.String(), "\n") {
		var cache, outcome string
		var n float64
		if _, err := fmt.Sscanf(line, `perfplay_pipeline_cache_requests_total{cache=%q,outcome=%q} %g`, &cache, &outcome, &n); err == nil {
			out[cache+"/"+outcome] = n
		}
	}
	return out
}

// recordedDigestRequest builds a digest-keyed trace request — the only
// kind the cluster cache exchanges — from a small deterministic
// recording.
func recordedDigestRequest(t *testing.T, seed int64) Request {
	t.Helper()
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: seed}), sim.Config{Seed: seed})
	var buf bytes.Buffer
	if err := rec.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return Request{
		Trace:       rec.Trace,
		TraceDigest: corpus.Digest(buf.Bytes()),
	}
}

// TestExportWireRoundTrip: a cached result exported in wire form, JSON
// round-tripped through the strict reader, validates against its key
// and is field for field the summary a local hit at the same depth
// renders.
func TestExportWireRoundTrip(t *testing.T) {
	p := New(Options{CacheSize: 4})
	req := recordedDigestRequest(t, 3)
	req.Schemes = true
	fresh, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := p.CacheKeyFor(req)
	if !ok {
		t.Fatal("digest request not cacheable")
	}
	if !p.HasResult(key) {
		t.Fatal("result not cached under its key")
	}

	for _, topK := range []int{0, 3} {
		wr, ok := p.Export(key, topK)
		if !ok {
			t.Fatalf("Export(top=%d) missed a populated key", topK)
		}
		data, err := json.Marshal(wr)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadWireResult(bytes.NewReader(data), key, topK)
		if err != nil {
			t.Fatalf("round-tripped wire result invalid: %v", err)
		}
		// The exported report must be byte-identical to a local cache
		// hit of the same request at the same depth.
		hitReq := req
		hitReq.TopK = topK
		hit, err := p.Run(hitReq)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.CacheHit {
			t.Fatal("second run missed the cache")
		}
		if back.Report != hit.Report {
			t.Fatalf("wire report differs from local hit at top %d:\nwire:\n%s\nlocal:\n%s",
				topK, back.Report, hit.Report)
		}
		if back.ULCPs != fresh.Analysis.Report.NumULCPs() {
			t.Fatalf("wire ULCP count %d differs from the analysis's %d", back.ULCPs, fresh.Analysis.Report.NumULCPs())
		}
		if len(back.Schemes) != len(fresh.Schemes) {
			t.Fatalf("wire carries %d schemes, want %d", len(back.Schemes), len(fresh.Schemes))
		}
		// Start never crosses the wire; everything else does.
		want := hit.Summary.At(hit.Request.TopK)
		for i := range want.Timings {
			want.Timings[i].Start = time.Time{}
		}
		if !reflect.DeepEqual(back.Rendered, want) {
			t.Fatalf("wire summary differs from the local hit's at top %d:\nwire:  %+v\nlocal: %+v", topK, back.Rendered, want)
		}
	}

	if _, ok := p.Export("no-such-key", 0); ok {
		t.Fatal("Export invented a result for an unknown key")
	}
}

// TestNegativeTopKClamped: a negative report depth behaves like the
// default everywhere — the local run must not diverge from (or panic
// where) the cluster-cache wire path, which maps top<=0 to 5.
func TestNegativeTopKClamped(t *testing.T) {
	p := New(Options{CacheSize: 4})
	neg := recordedDigestRequest(t, 3)
	neg.TopK = -1
	res, err := p.Run(neg)
	if err != nil {
		t.Fatal(err)
	}
	def := neg
	def.TopK = 5
	ref, err := p.Run(def)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.CacheHit {
		t.Fatal("clamped depths did not share a cache entry")
	}
	if res.Report != ref.Report {
		t.Fatal("negative TopK report differs from the default depth")
	}
}

// TestWireResultValidate pins the import guards: mismatched key,
// mismatched depth, missing report — each must be rejected, because
// importing any of them would silently break the byte-identical
// contract.
func TestWireResultValidate(t *testing.T) {
	good := func() *WireResult {
		return &WireResult{Key: "k", TopK: 5, Rendered: core.Rendered{Report: "r"}}
	}
	if err := good().Validate("k", 0); err != nil {
		t.Fatalf("valid wire result rejected: %v", err)
	}
	if err := good().Validate("k", 5); err != nil {
		t.Fatalf("valid wire result rejected at explicit depth: %v", err)
	}
	cases := map[string]*WireResult{
		"wrong key":   {Key: "other", TopK: 5, Rendered: core.Rendered{Report: "r"}},
		"wrong depth": {Key: "k", TopK: 3, Rendered: core.Rendered{Report: "r"}},
		"no report":   {Key: "k", TopK: 5},
	}
	for name, wr := range cases {
		if err := wr.Validate("k", 5); err == nil {
			t.Fatalf("%s: Validate accepted it", name)
		}
	}
}

// TestTableExportImport: a verdict table cached by one pipeline imports
// into another under the same key, after which the importer classifies
// with zero additional table builds — and garbage imports are refused.
func TestTableExportImport(t *testing.T) {
	src := New(Options{CacheSize: 4})
	req := recordedDigestRequest(t, 5)
	if _, err := src.Run(req); err != nil {
		t.Fatal(err)
	}
	key, ok := src.TableKeyFor(req)
	if !ok {
		t.Fatal("digest request has no table key")
	}
	wt, ok := src.ExportTable(key)
	if !ok {
		t.Fatal("table not cached after a run")
	}
	if err := wt.Validate(key); err != nil {
		t.Fatalf("exported table invalid: %v", err)
	}
	if err := wt.Validate("other-key"); err == nil {
		t.Fatal("mismatched key validated")
	}
	table := wt.Table

	reg := telemetry.NewRegistry()
	dst := New(Options{CacheSize: 4, Metrics: reg})
	if dst.HasTable(key) {
		t.Fatal("fresh pipeline claims the table")
	}
	if !dst.ImportTable(key, table) {
		t.Fatal("valid table import refused")
	}
	if !dst.HasTable(key) {
		t.Fatal("imported table not visible")
	}
	// The imported table must steer a run exactly like a locally-built
	// one: same report bytes, table-hit accounting instead of a build.
	res, err := dst.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := src.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != ref.Report {
		t.Fatal("run over imported table differs from source pipeline")
	}
	if st := cacheRequests(t, reg); st["table/hit"] != 1 || st["table/miss"] != 0 {
		t.Fatalf("importer cache requests = %v, want one table hit", st)
	}

	for name, tc := range map[string]struct {
		key string
		t   *ulcp.VerdictTable
	}{
		"empty key":   {"", table},
		"nil table":   {key, nil},
		"no verdicts": {key, &ulcp.VerdictTable{}},
	} {
		if dst.ImportTable(tc.key, tc.t) {
			t.Fatalf("%s: garbage import accepted", name)
		}
	}
}

// TestCacheStatsAndRecentKeys: hit/miss accounting and the
// most-recent-first hint ordering peers gossip.
func TestCacheStatsAndRecentKeys(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Options{CacheSize: 4, Metrics: reg})
	reqA := recordedDigestRequest(t, 3)
	reqB := recordedDigestRequest(t, 5)
	for _, r := range []Request{reqA, reqB, reqA} {
		if _, err := p.Run(r); err != nil {
			t.Fatal(err)
		}
	}
	st := cacheRequests(t, reg)
	if st["result/hit"] != 1 || st["result/miss"] != 2 {
		t.Fatalf("cache requests = %v, want 1 hit / 2 misses", st)
	}
	if st["table/miss"] != 2 || st["table/hit"] != 0 {
		t.Fatalf("cache requests = %v, want 2 table misses (each first run builds)", st)
	}

	keyA, _ := p.CacheKeyFor(reqA)
	keyB, _ := p.CacheKeyFor(reqB)
	keys := p.RecentResultKeys(8)
	if len(keys) != 2 || keys[0] != keyA || keys[1] != keyB {
		t.Fatalf("recent keys = %v, want [%s %s] (A re-hit last)", keys, keyA, keyB)
	}
	if got := p.RecentResultKeys(1); len(got) != 1 || got[0] != keyA {
		t.Fatalf("bounded recent keys = %v", got)
	}
	// Presence probes must not distort that order.
	if !p.HasResult(keyB) || p.HasResult("nope") {
		t.Fatal("HasResult wrong")
	}
	if keys2 := p.RecentResultKeys(8); keys2[0] != keyA {
		t.Fatalf("peek reordered the LRU: %v", keys2)
	}
}
