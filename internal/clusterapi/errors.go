package clusterapi

import (
	"encoding/json"
	"fmt"
)

// ErrorCode is a machine-readable API error identifier. Codes are the
// stable contract — messages are for humans and may change freely —
// and are documented per route in docs/API.md.
type ErrorCode string

// The documented error codes. Every non-2xx perfplayd response body
// carries exactly one of these.
const (
	// CodeBadRequest covers malformed request syntax: bad JSON, bad
	// query parameters, invalid flag combinations.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownWorkload rejects an analyze request naming an app the
	// node has no recorder for.
	CodeUnknownWorkload ErrorCode = "unknown_workload"
	// CodeInvalidTrace rejects a POST /traces body that fails to parse
	// as any supported format, holds no events or fails trace.Validate,
	// and a malformed digest.
	CodeInvalidTrace ErrorCode = "invalid_trace"
	// CodeBodyTooLarge rejects a request body over the route's byte
	// bound.
	CodeBodyTooLarge ErrorCode = "body_too_large"
	// CodeQueueFull means admission failed: the pending-job queue is at
	// capacity. The response may carry a Retry-Peer header naming an
	// idler node.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeTraceBacklogFull means the POST /traces bodies being buffered
	// are at their byte capacity.
	CodeTraceBacklogFull ErrorCode = "trace_backlog_full"
	// CodeJobNotFound means the job ID is unknown to this node.
	CodeJobNotFound ErrorCode = "job_not_found"
	// CodeTraceNotFound means the corpus has no blob for the digest.
	CodeTraceNotFound ErrorCode = "trace_not_found"
	// CodeCacheMiss means the probed cache key is not resident here.
	CodeCacheMiss ErrorCode = "cache_miss"
	// CodeCorpusDisabled means the node runs without a corpus
	// directory, so content-addressed trace routes are unavailable.
	CodeCorpusDisabled ErrorCode = "corpus_disabled"
	// CodeCorpusFull means the corpus byte budget cannot admit the
	// blob even after eviction.
	CodeCorpusFull ErrorCode = "corpus_full"
	// CodeLeaseExpired rejects a stolen-job result reported after the
	// victim's lease ran out (the job was re-enqueued; the late result
	// is discarded).
	CodeLeaseExpired ErrorCode = "lease_expired"
	// CodeShuttingDown means the node is draining and admits nothing.
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeInternal is an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// APIError is the body of every non-2xx perfplayd response:
//
//	{"error": {"code": "queue_full", "message": "queue full (8 queued)"}}
//
// Code is machine-readable and stable; Message is human prose.
type APIError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements the error interface: "queue_full: queue full (8
// queued)".
func (e *APIError) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Envelope is the wrapper object the wire carries.
type Envelope struct {
	Err APIError `json:"error"`
}

// NewError builds an APIError with a formatted message.
func NewError(code ErrorCode, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeError parses a response body into an *APIError. It accepts the
// documented envelope and, for compatibility with pre-envelope nodes
// during a rolling upgrade, the legacy {"error": "<message>"} string
// form (decoded with an empty Code). Returns nil when the body is not
// a recognizable error payload.
func DecodeError(body []byte) *APIError {
	var env struct {
		Err json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || len(env.Err) == 0 {
		return nil
	}
	var apiErr APIError
	if err := json.Unmarshal(env.Err, &apiErr); err == nil && apiErr.Message != "" {
		return &apiErr
	}
	var legacy string
	if err := json.Unmarshal(env.Err, &legacy); err == nil && legacy != "" {
		return &APIError{Message: legacy}
	}
	return nil
}
