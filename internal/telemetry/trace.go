package telemetry

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// HTTP headers that carry trace context between cluster nodes. Every
// hop perfplayd makes on behalf of a job — steal claim, result settle,
// cache probe, admission redirect, trace fetch — forwards these so a
// job keeps one identity across the whole cluster.
const (
	// TraceHeader carries the job's trace ID.
	TraceHeader = "X-Perfplay-Trace"
	// SpanHeader carries the caller's span ID, which the receiving
	// node adopts as the parent of the spans it records.
	SpanHeader = "X-Perfplay-Span"
)

// Span is one named, timed event in a job's distributed timeline. The
// Node attribute is what lets a single trace tell a cross-machine
// story: spans recorded by the victim, the thief, and a probed cache
// peer all land under the same trace ID with different Node values.
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

// Default TraceStore bounds.
const (
	// DefaultMaxTraces bounds how many distinct traces a node retains.
	DefaultMaxTraces = 1024
	// DefaultMaxSpansPerTrace bounds one trace's timeline; a job that
	// somehow generates more keeps its earliest spans and counts the
	// overflow, so a runaway fan-out can't eat the store.
	DefaultMaxSpansPerTrace = 256
)

// TraceStore is a bounded in-memory map from trace ID to span
// timeline. Whole traces are evicted least-recently-touched first once
// the store is full; within a trace, spans past the per-trace cap are
// dropped (counted, not stored). All methods are safe for concurrent
// use.
type TraceStore struct {
	maxTraces int
	maxSpans  int

	mu     sync.Mutex
	traces map[string]*traceEntry
	clock  uint64 // logical time for LRU ordering
}

type traceEntry struct {
	spans   []Span
	dropped int
	touched uint64
}

// NewTraceStore builds a store; non-positive bounds use the defaults.
func NewTraceStore(maxTraces, maxSpansPerTrace int) *TraceStore {
	if maxTraces <= 0 {
		maxTraces = DefaultMaxTraces
	}
	if maxSpansPerTrace <= 0 {
		maxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	return &TraceStore{
		maxTraces: maxTraces,
		maxSpans:  maxSpansPerTrace,
		traces:    make(map[string]*traceEntry),
	}
}

// Add appends one span to a trace's timeline, creating the trace (and
// evicting the least-recently-touched one if the store is full) as
// needed. Spans with an empty trace ID are dropped silently — a
// non-traced code path is legal, not an error.
func (ts *TraceStore) Add(traceID string, span Span) {
	if traceID == "" {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.clock++
	e, ok := ts.traces[traceID]
	if !ok {
		if len(ts.traces) >= ts.maxTraces {
			ts.evictOldestLocked()
		}
		e = &traceEntry{}
		ts.traces[traceID] = e
	}
	e.touched = ts.clock
	if len(e.spans) >= ts.maxSpans {
		e.dropped++
		return
	}
	e.spans = append(e.spans, span)
}

// evictOldestLocked removes the least-recently-touched trace.
func (ts *TraceStore) evictOldestLocked() {
	var victim string
	var oldest uint64
	first := true
	for id, e := range ts.traces {
		if first || e.touched < oldest {
			victim, oldest, first = id, e.touched, false
		}
	}
	if victim != "" {
		delete(ts.traces, victim)
	}
}

// Get returns a copy of a trace's spans sorted by start time (stable on
// insertion order for equal starts) plus the count of spans dropped to
// the per-trace cap. ok is false for an unknown trace.
func (ts *TraceStore) Get(traceID string) (spans []Span, dropped int, ok bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, found := ts.traces[traceID]
	if !found {
		return nil, 0, false
	}
	ts.clock++
	e.touched = ts.clock
	spans = append([]Span(nil), e.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return spans, e.dropped, true
}

// Len reports how many traces the store currently holds.
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.traces)
}
