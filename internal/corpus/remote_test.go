package corpus_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"perfplay/internal/corpus"
	"perfplay/internal/jobs"
	"perfplay/internal/peerclient"
	"perfplay/internal/sim"
	"perfplay/internal/workload"
)

// These tests drive peerclient's blob fetch and submit against stubs
// over a real Store; the external test package is what lets them import
// peerclient, which imports corpus, without a cycle.

// tracesStub serves a perfplayd-shaped GET /traces/{digest} over a real
// Store, so the fetch is tested against the store semantics it will
// meet in production without importing the daemon.
func tracesStub(t *testing.T, st *corpus.Store) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /traces/{digest}", func(w http.ResponseWriter, r *http.Request) {
		data, _, err := st.Get(r.PathValue("digest"))
		if err != nil {
			w.WriteHeader(http.StatusNotFound)
			_, _ = w.Write([]byte(`{"error":"not found"}`))
			return
		}
		_, _ = w.Write(data)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func remotePayload(t *testing.T) []byte {
	t.Helper()
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: 3}), sim.Config{Seed: 3})
	var buf bytes.Buffer
	if err := rec.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteFetch: a blob stored on the peer fetches back verified
// against its digest, and unknown digests surface as ErrNotFound.
func TestRemoteFetch(t *testing.T) {
	st, err := corpus.Open(t.TempDir(), corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := tracesStub(t, st)
	rem := &peerclient.Client{}
	const maxBytes = 1 << 30

	payload := remotePayload(t)
	meta, _, err := st.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}

	got, err := rem.FetchTrace(ts.URL, meta.Digest, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("fetched %d bytes differ from stored %d", len(got), len(payload))
	}

	if _, err := rem.FetchTrace(ts.URL, corpus.Digest([]byte("never stored")), maxBytes); !errors.Is(err, corpus.ErrNotFound) {
		t.Fatalf("unknown digest: err = %v, want ErrNotFound", err)
	}
	if _, err := rem.FetchTrace(ts.URL, "sha256:nope", maxBytes); !errors.Is(err, corpus.ErrInvalid) {
		t.Fatalf("malformed digest: err = %v, want ErrInvalid", err)
	}
}

// TestRemoteFetchRejectsBadBytes: a peer serving bytes that do not hash
// to the requested digest — or more bytes than the caller's bound —
// must be rejected, never trusted into a digest-keyed cache.
func TestRemoteFetchRejectsBadBytes(t *testing.T) {
	payload := remotePayload(t)
	digest := corpus.Digest(payload)
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("not the bytes you hashed"))
	}))
	defer lying.Close()

	rem := &peerclient.Client{}
	if _, err := rem.FetchTrace(lying.URL, digest, 1<<30); !errors.Is(err, corpus.ErrInvalid) {
		t.Fatalf("mismatched bytes: err = %v, want ErrInvalid", err)
	}

	if _, err := rem.FetchTrace(lying.URL, digest, 8); err == nil || !strings.Contains(err.Error(), "more than 8 bytes") {
		t.Fatalf("oversized body: err = %v, want size-bound rejection", err)
	}
}

// analyzeStub serves a minimal /analyze that either accepts or answers
// 503, optionally with a Retry-Peer header; it counts submits.
func analyzeStub(t *testing.T, accept bool, retryPeer func() string) (*httptest.Server, *int) {
	t.Helper()
	calls := new(int)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", func(w http.ResponseWriter, r *http.Request) {
		*calls++
		if accept {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id": "job-1", "status": "queued"}`)
			return
		}
		if rp := retryPeer(); rp != "" {
			w.Header().Set("Retry-Peer", rp)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error": "job queue full"}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, calls
}

// TestSubmitAnalyzeFollowsRetryPeer: a 503 naming an idle peer is
// followed, and the accepted base — not the submitted one — is
// returned, so the caller polls the node that actually owns the job.
func TestSubmitAnalyzeFollowsRetryPeer(t *testing.T) {
	idle, idleCalls := analyzeStub(t, true, nil)
	full, fullCalls := analyzeStub(t, false, func() string { return idle.URL })

	rem := &peerclient.Client{}
	id, base, err := rem.Submit(full.URL, []byte(`{"app":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-1" || base != idle.URL {
		t.Fatalf("submit = (%q, %q), want (job-1, %s)", id, base, idle.URL)
	}
	if *fullCalls != 1 || *idleCalls != 1 {
		t.Fatalf("calls full=%d idle=%d, want 1 each", *fullCalls, *idleCalls)
	}
}

// TestSubmitAnalyzeNoRedirect: a plain 503 (no Retry-Peer) surfaces as
// an error after exactly one attempt, and a direct accept needs none.
func TestSubmitAnalyzeNoRedirect(t *testing.T) {
	full, fullCalls := analyzeStub(t, false, func() string { return "" })
	rem := &peerclient.Client{}
	if _, _, err := rem.Submit(full.URL, []byte(`{}`)); err == nil {
		t.Fatal("503 without Retry-Peer did not error")
	}
	if *fullCalls != 1 {
		t.Fatalf("calls = %d, want 1 (no peer to retry)", *fullCalls)
	}

	ok, okCalls := analyzeStub(t, true, nil)
	if _, base, err := rem.Submit(ok.URL, []byte(`{}`)); err != nil || base != ok.URL {
		t.Fatalf("direct accept: base=%q err=%v", base, err)
	}
	if *okCalls != 1 {
		t.Fatalf("calls = %d, want 1", *okCalls)
	}
}

// TestSubmitAnalyzeHopBound: a chain of full nodes longer than the hop
// bound ends in an error naming the bound — never an unbounded crawl.
func TestSubmitAnalyzeHopBound(t *testing.T) {
	// Build a chain: each full node redirects to the next.
	maxHops := jobs.SubmitHops
	next := ""
	var chain []*httptest.Server
	var counts []*int
	for i := 0; i < maxHops+2; i++ {
		target := next
		ts, calls := analyzeStub(t, false, func() string { return target })
		chain = append(chain, ts)
		counts = append(counts, calls)
		next = ts.URL
	}
	head := chain[len(chain)-1]

	_, _, err := (&peerclient.Client{}).Submit(head.URL, []byte(`{}`))
	if err == nil || !strings.Contains(err.Error(), "Retry-Peer hops") {
		t.Fatalf("err = %v, want hop-bound rejection", err)
	}
	visited := 0
	for _, c := range counts {
		visited += *c
	}
	if visited != maxHops+1 {
		t.Fatalf("visited %d nodes, want %d (origin + %d hops)",
			visited, maxHops+1, maxHops)
	}
}
