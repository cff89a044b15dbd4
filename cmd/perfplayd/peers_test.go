package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"perfplay/internal/jobs"
)

// recordingPeer is a started daemon behind a handler that records every
// request it receives as "METHOD path".
type recordingPeer struct {
	srv *Server
	url string

	mu   sync.Mutex
	seen []string
}

func newRecordingPeer(t *testing.T) *recordingPeer {
	t.Helper()
	srv, err := NewServer(Config{CorpusDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	p := &recordingPeer{srv: srv}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		p.seen = append(p.seen, r.Method+" "+r.URL.Path)
		p.mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	p.url = ts.URL
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return p
}

func (p *recordingPeer) requests() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.seen...)
}

// TestPeersConfiguredClassificationStaysHome: -peers means steal whole
// jobs, probe peer caches and redirect admissions — nothing else. A job
// that runs on a node with peers (stealing off, so it cannot migrate)
// classifies against its cached verdict table locally: the peers see no
// request beyond steal/cache probes, receive no trace blob, and the
// job's timeline carries no shard_* span — and the report is still the
// committed golden.
func TestPeersConfiguredClassificationStaysHome(t *testing.T) {
	p1, p2 := newRecordingPeer(t), newRecordingPeer(t)
	_, node := testServer(t, Config{Peers: []string{p1.url, p2.url}, Policy: jobs.Policy{StealInterval: -1}})

	for _, g := range goldenSpecs {
		runJobReport(t, node.URL, g.warmup) // builds + caches the verdict table
		j := runJob(t, node.URL, g.spec)
		if report, want := j["report"].(string), goldenReport(t, g.name); report != want {
			t.Fatalf("%s: report with peers configured differs from golden:\nwant:\n%s\ngot:\n%s", g.name, want, report)
		}
		for _, sp := range getTrace(t, node.URL, j["id"].(string)).Spans {
			if strings.HasPrefix(sp.Name, "shard_") {
				t.Errorf("%s: job timeline carries span %q", g.name, sp.Name)
			}
		}
	}

	for i, p := range []*recordingPeer{p1, p2} {
		for _, req := range p.requests() {
			if req != "GET /steal" &&
				!strings.HasPrefix(req, "GET /cache/results/") &&
				!strings.HasPrefix(req, "GET /cache/tables/") {
				t.Errorf("peer %d received %q; only steal and cache probes may cross nodes", i+1, req)
			}
		}
		if n := p.srv.corpus.Len(); n != 0 {
			t.Errorf("peer %d corpus holds %d traces; no blob may be pushed to a peer", i+1, n)
		}
	}
}
