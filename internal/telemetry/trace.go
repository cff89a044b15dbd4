package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// TraceHeader carries a job's trace ID on POST /analyze: a client's
// valid ID is adopted, and every answer echoes the job's. Between nodes
// the ID rides nowhere: a stolen job's spans go back in the settle body
// and land on the job's timeline on its owner.
const TraceHeader = "X-Perfplay-Trace"

// Span is one named, timed event in a job's timeline. The Node
// attribute is what lets one timeline tell a cross-machine story: the
// spans its owner recorded and those a thief shipped back sit side by
// side with different Node values.
type Span struct {
	ID     string            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Node   string            `json:"node"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// idCounter backs the fallback ID path if crypto/rand ever fails.
var idCounter atomic.Uint64

func randomID(bytes int) string {
	b := make([]byte, bytes)
	if _, err := rand.Read(b); err != nil {
		// Degrade to a process-unique counter rather than panicking in
		// the middle of a job submit; IDs stay unique, just guessable.
		n := idCounter.Add(1)
		for i := range b {
			b[i] = byte(n >> (8 * (uint(i) % 8)))
		}
	}
	return hex.EncodeToString(b)
}

// NewTraceID mints a 16-byte hex trace ID.
func NewTraceID() string { return randomID(16) }

// NewSpanID mints an 8-byte hex span ID.
func NewSpanID() string { return randomID(8) }

// ValidTraceID reports whether a client-supplied trace ID is safe to
// adopt: lowercase hex, 8–64 chars. Anything else is replaced with a
// minted ID rather than rejected — tracing must never fail a job.
func ValidTraceID(id string) bool {
	if len(id) < 8 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
