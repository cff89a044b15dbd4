// Package peerclient is the one client for perfplayd's HTTP API: every
// call a node makes on a peer (status probe, claim and settle, cache and
// trace fetches) and `perfplayd submit`'s submit and long-poll go
// through Client.do. Client is the node's jobs.Peer and drives
// jobs.FollowRedirects, so internal/jobs never links net/http; the
// cluster simulator implements the same jobs.Peer in memory.
package peerclient

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/corpus"
	"perfplay/internal/jobs"
	"perfplay/internal/pipeline"
)

var _ jobs.Peer[*pipeline.WireResult, *pipeline.WireTable] = (*Client)(nil)

// Client calls perfplayd nodes. The zero value uses http.DefaultClient.
type Client struct {
	// HTTP carries the calls; its Timeout bounds each one.
	HTTP *http.Client
}

// Response body bounds, one per route, so a broken peer cannot balloon
// this process or its gossip view. A blob's bound is the caller's.
const (
	maxControlBytes = 1 << 20 // GET /steal, POST /jobs/claim, settle and submit replies
	// MaxSummaryBytes bounds a summary: a cache result or a job poll
	// here, a thief's settle body on the victim.
	MaxSummaryBytes = 4 << 20
	maxTableBytes   = 64 << 20 // a verdict table: perfplayd's default upload bound
	maxErrorBytes   = 4096     // the error envelope of a non-2xx answer
)

// errTooLarge marks a 2xx answer whose body ran past its route's bound.
var errTooLarge = errors.New("peer response exceeds its bound")

// What a non-2xx status means locally, per route: the blob and submit
// routes mirror perfplayd's corpusError, so a peer's ErrNotFound is
// errors.Is-able like a local store's; a refused settle is stale.
var (
	corpusSentinels = map[int]error{
		http.StatusNotFound:              corpus.ErrNotFound,
		http.StatusInsufficientStorage:   corpus.ErrBudget,
		http.StatusBadRequest:            corpus.ErrInvalid,
		http.StatusRequestEntityTooLarge: corpus.ErrInvalid,
	}
	leaseSentinels = map[int]error{http.StatusConflict: jobs.ErrLeaseExpired}
)

// call is one request: its JSON body (nil = none), the 2xx body's bound
// and what to decode it into (nil = keep the bytes), its sentinels.
type call struct {
	method, url string
	body        []byte
	limit       int64
	into        any
	sentinels   map[int]error
}

// do issues one call and returns the response (non-nil once a status
// line arrived; its body read and closed) and the 2xx body, decoded into
// cl.into unless a 204. Any other status is an error wrapping the peer's
// decoded clusterapi.APIError and the route's sentinel for the status.
func (c *Client) do(cl call) (*http.Response, []byte, error) {
	var body io.Reader
	if cl.body != nil {
		body = bytes.NewReader(cl.body)
	}
	req, err := http.NewRequest(cl.method, cl.url, body)
	if err != nil {
		return nil, nil, err
	}
	if cl.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cmp.Or(c.HTTP, http.DefaultClient).Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	op := cl.method + " " + cl.url
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBytes))
		err := fmt.Errorf("%s: status %d", op, resp.StatusCode)
		if apiErr := clusterapi.DecodeError(raw); apiErr != nil {
			err = fmt.Errorf("%w: %w", err, apiErr)
		}
		if sentinel := cl.sentinels[resp.StatusCode]; sentinel != nil {
			err = fmt.Errorf("%w: %w", sentinel, err)
		}
		return resp, nil, err
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, cl.limit+1))
	if err == nil && int64(len(raw)) > cl.limit {
		err = fmt.Errorf("%w: more than %d bytes", errTooLarge, cl.limit)
	}
	if err == nil && cl.into != nil && resp.StatusCode != http.StatusNoContent {
		err = json.Unmarshal(raw, cl.into)
	}
	if err != nil {
		return resp, nil, fmt.Errorf("%s: %w", op, err)
	}
	return resp, raw, nil
}

// Probe asks one peer for its queue and cache status (GET /steal).
func (c *Client) Probe(peer string) (clusterapi.PeerStatus, error) {
	var st clusterapi.PeerStatus
	if _, _, err := c.do(call{method: http.MethodGet, url: peer + "/steal", limit: maxControlBytes, into: &st}); err != nil {
		return clusterapi.PeerStatus{}, err
	}
	return st, nil
}

// Claim attempts to take one whole job from a peer (POST /jobs/claim);
// a 204 means nothing was stealable.
func (c *Client) Claim(peer, thief string) (clusterapi.StolenJob, bool, error) {
	body, _ := json.Marshal(map[string]string{"thief": thief})
	var job clusterapi.StolenJob
	resp, _, err := c.do(call{method: http.MethodPost, url: peer + "/jobs/claim", body: body, limit: maxControlBytes, into: &job})
	if err != nil || resp.StatusCode == http.StatusNoContent {
		return clusterapi.StolenJob{}, false, err
	}
	if job.ID == "" || !job.Spec.Stealable() {
		return clusterapi.StolenJob{}, false, fmt.Errorf("claim from %s: unusable job %+v", peer, job)
	}
	return job, true, nil
}

// Settle reports a stolen job's outcome (POST /jobs/{id}/result). A 409
// wraps jobs.ErrLeaseExpired: the victim re-owns the job.
func (c *Client) Settle(victim, jobID string, res clusterapi.StealResult) error {
	body, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	_, _, err = c.do(call{method: http.MethodPost, url: victim + "/jobs/" + jobID + "/result", body: body,
		limit: maxControlBytes, sentinels: leaseSentinels})
	return err
}

// FetchResult fetches and validates one peer's cached result
// (GET /cache/results/{key}). A body past MaxSummaryBytes, or in any
// shape but the current one, is an error — a miss.
func (c *Client) FetchResult(peer, key string, topK int) (*pipeline.WireResult, error) {
	_, raw, err := c.do(call{method: http.MethodGet,
		url:   peer + "/cache/results/" + url.PathEscape(key) + "?top=" + strconv.Itoa(topK),
		limit: MaxSummaryBytes})
	if err != nil {
		return nil, err
	}
	return pipeline.ReadWireResult(bytes.NewReader(raw), key, topK)
}

// FetchTable fetches and decodes one peer's cached verdict table
// (GET /cache/tables/{key}); the importer validates it.
func (c *Client) FetchTable(peer, key string) (*pipeline.WireTable, error) {
	var wt pipeline.WireTable
	if _, _, err := c.do(call{method: http.MethodGet, url: peer + "/cache/tables/" + url.PathEscape(key), limit: maxTableBytes, into: &wt}); err != nil {
		return nil, err
	}
	return &wt, nil
}

// FetchTrace downloads a blob by digest (GET /traces/{digest}), at most
// maxBytes of it, and verifies it hashes to the digest: an unverified
// blob would poison every digest-keyed cache above it.
func (c *Client) FetchTrace(base, digest string, maxBytes int64) ([]byte, error) {
	if err := corpus.CheckDigest(digest); err != nil {
		return nil, err
	}
	_, data, err := c.do(call{method: http.MethodGet, url: base + "/traces/" + digest, limit: maxBytes, sentinels: corpusSentinels})
	if err != nil {
		return nil, err
	}
	if corpus.Digest(data) != digest {
		return nil, fmt.Errorf("%w: peer %s served %d bytes not matching %s", corpus.ErrInvalid, base, len(data), digest)
	}
	return data, nil
}

// Submit submits a JSON job spec to base's POST /analyze, following
// Retry-Peer redirects through jobs.FollowRedirects. It returns
// the job id and the base that accepted it: the node to poll.
func (c *Client) Submit(base string, spec []byte) (id, accepted string, err error) {
	submit := func(base string) (jobs.SubmitReply, error) {
		var accept struct {
			ID string `json:"id"`
		}
		resp, _, err := c.do(call{method: http.MethodPost, url: base + "/analyze", body: spec,
			limit: maxControlBytes, into: &accept, sentinels: corpusSentinels})
		if err != nil && resp != nil && resp.StatusCode/100 != 2 {
			// A rejection; only a 503's Retry-Peer names a peer with room.
			reply := jobs.SubmitReply{Reject: err}
			if resp.StatusCode == http.StatusServiceUnavailable {
				reply.RetryPeer = resp.Header.Get("Retry-Peer")
			}
			return reply, nil
		}
		if err == nil && accept.ID == "" {
			err = errors.New("accept response carries no job id")
		}
		if err != nil {
			return jobs.SubmitReply{}, fmt.Errorf("submit to %s: %w", base, err)
		}
		return jobs.SubmitReply{ID: accept.ID}, nil
	}
	return jobs.FollowRedirects(submit, base, jobs.SubmitHops)
}

// Wait long-polls GET {base}/jobs/{id}?wait= until the job is done or
// failed. Each poll times out at the wait plus half again (a second at
// least), so a node that never answers cannot hang the caller.
func (c *Client) Wait(base, id string, wait time.Duration) (jobs.Job, error) {
	hc := *cmp.Or(c.HTTP, http.DefaultClient)
	hc.Timeout = wait + max(wait/2, time.Second)
	poll := Client{HTTP: &hc}
	for {
		var j jobs.Job
		if _, _, err := poll.do(call{method: http.MethodGet, url: base + "/jobs/" + id + "?wait=" + wait.String(),
			limit: MaxSummaryBytes, into: &j}); err != nil {
			return jobs.Job{}, err
		}
		switch j.Status {
		case jobs.Done, jobs.Failed:
			return j, nil
		case jobs.Queued, jobs.Running:
		default:
			return jobs.Job{}, fmt.Errorf("poll %s/jobs/%s: unknown status %q", base, id, j.Status)
		}
	}
}
