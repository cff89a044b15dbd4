package peerclient

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/jobs"
	"perfplay/internal/pipeline"
	"perfplay/internal/telemetry"
)

// TestProbeRejectsOversizedStatus: a peer streaming a /steal answer
// past the control bound (here, cache keys without end) fails the probe
// instead of flooding the gossip view, and the stealer records the
// failure against that peer.
func TestProbeRejectsOversizedStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"queue_len":1,"stealable":1,"cache_keys":["`)
		io.WriteString(w, strings.Repeat("k", maxControlBytes))
		io.WriteString(w, `"]}`)
	}))
	defer ts.Close()

	if _, err := (&Client{}).Probe(ts.URL); !errors.Is(err, errTooLarge) {
		t.Fatalf("oversized status: err = %v, want errTooLarge", err)
	}
	n := jobs.New(jobs.Config[*pipeline.WireResult, *pipeline.WireTable]{Peers: []string{ts.URL}})
	n.NewStealer("", &Client{},
		func() bool { return false }, // one gossip-only round
		func(string, clusterapi.StolenJob) error { return nil }).Tick(nil)
	entry := n.Gossip.Snapshot()[ts.URL]
	if entry.Err == "" || len(entry.CacheKeys) != 0 || entry.QueueLen != 0 {
		t.Fatalf("gossip entry = %+v, want a bare error entry", entry)
	}
}

// TestWaitTimesOutOnSilentNode: a node that accepts the poll and never
// answers fails Wait after the wait plus its margin, not never.
func TestWaitTimesOutOnSilentNode(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })

	start := time.Now()
	_, err := (&Client{}).Wait(ts.URL, "job-1", 100*time.Millisecond)
	if err == nil {
		t.Fatal("Wait on a silent node returned no error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Wait gave up after %v, want about the wait plus its margin", elapsed)
	}
}

// TestWaitPollsUntilTerminal: queued and running answers poll again
// with the wait on the URL; a failed job comes back as the job, not as
// a transport error.
func TestWaitPollsUntilTerminal(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs/job-7" || r.URL.Query().Get("wait") != "30s" {
			t.Errorf("poll %s, want /jobs/job-7?wait=30s", r.URL)
		}
		status := []string{jobs.Queued, jobs.Running, jobs.Failed}[min(polls.Add(1)-1, 2)]
		fmt.Fprintf(w, `{"id":"job-7","status":%q,"error":"boom"}`, status)
	}))
	defer ts.Close()

	j, err := (&Client{}).Wait(ts.URL, "job-7", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if j.Status != jobs.Failed || j.Error != "boom" || polls.Load() != 3 {
		t.Fatalf("job = %+v after %d polls, want failed/boom after 3", j, polls.Load())
	}
}

// TestStatusErrorWrapsEnvelopeAndSentinel: a non-2xx answer is one
// error carrying the route's sentinel and the peer's decoded envelope.
// No call carries a trace header: a job's timeline crosses nodes only
// in the claim and settle bodies.
func TestStatusErrorWrapsEnvelopeAndSentinel(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get(telemetry.TraceHeader); h != "" {
			t.Errorf("%s %s carries trace header %q", r.Method, r.URL.Path, h)
		}
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, `{"error":{"code":"lease_expired","message":"job job-3 is not on lease"}}`)
	}))
	defer ts.Close()

	c := &Client{}
	err := c.Settle(ts.URL, "job-3", clusterapi.StealResult{Thief: "http://thief:1"})
	if !errors.Is(err, jobs.ErrLeaseExpired) {
		t.Fatalf("err = %v, want ErrLeaseExpired", err)
	}
	var apiErr *clusterapi.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != clusterapi.CodeLeaseExpired {
		t.Fatalf("err = %v, want the decoded lease_expired envelope", err)
	}
	// The same status on a route without a sentinel wraps only the
	// envelope.
	if _, err := c.Probe(ts.URL); errors.Is(err, jobs.ErrLeaseExpired) || !errors.As(err, &apiErr) {
		t.Fatalf("probe err = %v, want the envelope alone", err)
	}
}
