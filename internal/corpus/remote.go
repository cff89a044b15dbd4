package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"perfplay/internal/cachepolicy"
	"perfplay/internal/clusterapi"
	"perfplay/internal/telemetry"
)

// Remote is a client for another node's corpus — the /traces endpoints
// a perfplayd daemon serves — plus its POST /analyze. Any node can
// pull a blob it has only heard referenced (a thief fetching a stolen
// job's trace from the victim); every fetched blob is verified against
// its digest before being trusted.
type Remote struct {
	// Base is the peer's base URL, e.g. "http://host:8080".
	Base string
	// Client overrides http.DefaultClient (timeouts, transports).
	Client *http.Client
	// MaxFetchBytes bounds how much of a fetched blob Fetch will buffer
	// (0 = 1 GiB, matching the store's default byte budget) — a broken
	// peer must not be able to balloon this process.
	MaxFetchBytes int64
	// TraceID and SpanID, when set, ride every request as
	// X-Perfplay-Trace/-Span headers so a cross-node hop (submit
	// redirect, blob fetch) stays on the originating job's
	// distributed trace.
	TraceID string
	SpanID  string
}

func (r *Remote) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return http.DefaultClient
}

// do issues one request with the trace-context headers attached.
func (r *Remote) do(method, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if r.TraceID != "" {
		req.Header.Set(telemetry.TraceHeader, r.TraceID)
	}
	if r.SpanID != "" {
		req.Header.Set(telemetry.SpanHeader, r.SpanID)
	}
	return r.client().Do(req)
}

// remoteError decodes a perfplayd error body — the documented
// {"error": {"code", "message"}} envelope, or the legacy
// {"error": "..."} string a pre-envelope node still sends — into an
// error tagged with the local sentinel matching the remote status, so
// callers can errors.Is a peer's ErrNotFound exactly like a local
// store's.
func remoteError(op string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := resp.Status
	if apiErr := clusterapi.DecodeError(raw); apiErr != nil {
		msg = apiErr.Error()
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s: %s", ErrNotFound, op, msg)
	case http.StatusInsufficientStorage:
		return fmt.Errorf("%w: %s: %s", ErrBudget, op, msg)
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		return fmt.Errorf("%w: %s: %s", ErrInvalid, op, msg)
	default:
		return fmt.Errorf("corpus: %s: %s", op, msg)
	}
}

// SubmitAnalyze submits one analysis job — a perfplayd JSON spec: a
// workload description or a {"trace": "sha256:..."} stored-trace
// reference — to the peer's POST /analyze, following steal-aware
// admission redirects: a node whose queue is full answers 503 with a
// Retry-Peer header naming its idlest peer, and the submit retries
// there. The chain policy (hop bound, visited set, slash-normalized
// base comparison) is cachepolicy.FollowRedirects — the same code the
// simulator sweeps — with this method as its HTTP submit adapter. It
// returns the job id and the base URL that accepted it — the node to
// poll for the result, which under redirection is not necessarily the
// one submitted to.
func (r *Remote) SubmitAnalyze(spec []byte) (id, base string, err error) {
	return cachepolicy.FollowRedirects(r.submitOnce(spec), r.Base, cachepolicy.Defaults().SubmitHops)
}

// submitOnce adapts one POST /analyze into the admission chain's
// vocabulary: transport failures (unreachable peer, un-decodable
// accept) on the error return, rejections — with the Retry-Peer header
// attached only when the 503 makes it meaningful — in the reply.
func (r *Remote) submitOnce(spec []byte) cachepolicy.SubmitFunc {
	return func(base string) (cachepolicy.SubmitReply, error) {
		resp, err := r.do(http.MethodPost, base+"/analyze", "application/json", bytes.NewReader(spec))
		if err != nil {
			return cachepolicy.SubmitReply{}, fmt.Errorf("corpus: submit to %s: %w", base, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			var body struct {
				ID string `json:"id"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			if derr != nil || body.ID == "" {
				return cachepolicy.SubmitReply{}, fmt.Errorf("corpus: submit to %s: bad accept response (%v)", base, derr)
			}
			return cachepolicy.SubmitReply{ID: body.ID}, nil
		}
		reply := cachepolicy.SubmitReply{Reject: remoteError("submit to "+base, resp)}
		if resp.StatusCode == http.StatusServiceUnavailable {
			reply.RetryPeer = resp.Header.Get("Retry-Peer")
		}
		return reply, nil
	}
}

// Fetch downloads a blob by digest and verifies the bytes actually hash
// to it — a peer (or a middlebox) can be wrong, and an unverified blob
// would poison every digest-keyed cache above us.
func (r *Remote) Fetch(digest string) ([]byte, error) {
	if _, err := parseDigest(digest); err != nil {
		return nil, err
	}
	resp, err := r.do(http.MethodGet, r.Base+"/traces/"+digest, "", nil)
	if err != nil {
		return nil, fmt.Errorf("corpus: fetch %s from %s: %w", digest, r.Base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, remoteError("fetch "+digest+" from "+r.Base, resp)
	}
	maxBytes := r.MaxFetchBytes
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes+1))
	if err != nil {
		return nil, fmt.Errorf("corpus: fetch %s from %s: %w", digest, r.Base, err)
	}
	if int64(len(data)) > maxBytes {
		return nil, fmt.Errorf("%w: peer %s served more than %d bytes for %s", ErrInvalid, r.Base, maxBytes, digest)
	}
	if Digest(data) != digest {
		return nil, fmt.Errorf("%w: peer %s served %d bytes not matching %s", ErrInvalid, r.Base, len(data), digest)
	}
	return data, nil
}
