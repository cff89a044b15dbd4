package trace_test

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"perfplay/internal/trace"
	"perfplay/internal/ulcp"
)

// FuzzReadAny: the shared loader behind trace uploads, corpus blobs and
// the CLI's -replay path must never panic on arbitrary bytes, any trace
// it accepts must survive the binary re-encode + re-parse round trip the
// corpus performs when it canonicalizes blobs — which, since the writers
// store nothing but a recording, holds Decode to accepting only that —
// and one that also passes Validate must survive what every analysis
// does next: ExtractCS and ULCP identification. It lives in the external
// test package because ulcp imports trace.
func FuzzReadAny(f *testing.F) {
	tr := trace.BuildSample()
	var bin, js bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		f.Fatal(err)
	}
	if err := tr.WriteJSON(&js); err != nil {
		f.Fatal(err)
	}
	var col bytes.Buffer
	if err := tr.WriteColumnar(&col); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(col.Bytes())
	f.Add(js.Bytes())
	f.Add(bin.Bytes()[:len(bin.Bytes())/2]) // truncated binary
	f.Add(col.Bytes()[:len(col.Bytes())/2]) // truncated columnar
	f.Add([]byte{})
	f.Add([]byte(`{"events": []}`))
	f.Add([]byte(`{"app": "x", "threads": -1, "events": [{}]}`))
	// Two sections of one lock writing one address with an op no decoder
	// refuses: Validate must, or identification indexes its key letters
	// out of range.
	f.Add([]byte(`{"threads": 2, "events": [{"t":0,"k":4,"l":1},{"t":0,"k":9,"a":5,"op":7},{"t":0,"k":5,"l":1},` +
		`{"t":1,"k":4,"l":1},{"t":1,"k":9,"a":5,"op":2},{"t":1,"k":5,"l":1}]}`))
	// A recording in each format patched to carry what no recording
	// holds: Decode must refuse every one.
	patches := unrecorded(f, skipAndContend())
	for _, what := range slices.Sorted(maps.Keys(patches)) {
		f.Add(patches[what])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.ReadAny(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got == nil {
			t.Fatal("nil trace without error")
		}
		var buf bytes.Buffer
		if err := got.WriteBinary(&buf); err != nil {
			t.Fatalf("re-encode accepted trace: %v", err)
		}
		if _, err := trace.DecodeBinary(buf.Bytes()); err != nil {
			t.Fatalf("re-parse re-encoded trace: %v", err)
		}
		// Validate and ExtractCS keep per-thread state; a header may claim
		// 2^32 threads in four bytes, which is a memory bill, not a finding.
		if got.NumThreads > 1<<10 || got.Validate() != nil {
			return
		}
		ulcp.Identify(got, got.ExtractCS(), ulcp.Options{})
	})
}
