package clusterapi

import (
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeError hammers the error-body decoder with arbitrary bytes.
// DecodeError sits on every cluster client path — admission redirects,
// cache probes, steal claims and trace fetches all parse peer error
// bodies through it — and a peer mid-crash (or a proxy in between) can
// hand back anything.
// The contract under fuzz: never panic, and any non-nil result must be
// a usable error — a non-empty Error() string that round-trips through
// the envelope encoding without changing meaning.
func FuzzDecodeError(f *testing.F) {
	// The documented envelope form.
	f.Add([]byte(`{"error":{"code":"queue_full","message":"queue full (8 queued)"}}`))
	// The legacy pre-envelope string form.
	f.Add([]byte(`{"error":"queue full"}`))
	// Near-misses the decoder must reject, not misread.
	f.Add([]byte(`{"error":{"code":"queue_full","message":""}}`))
	f.Add([]byte(`{"error":{}}`))
	f.Add([]byte(`{"error":null}`))
	f.Add([]byte(`{"error":42}`))
	f.Add([]byte(`{}`))
	// Truncated envelope and plain garbage.
	f.Add([]byte(`{"error":{"code":"queue_f`))
	f.Add([]byte(`<html>502 Bad Gateway</html>`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		e := DecodeError(body)
		if e == nil {
			return
		}
		// A decoded error must be usable as an error value.
		if e.Message == "" {
			t.Fatalf("DecodeError(%q) returned an APIError with an empty message", body)
		}
		if e.Error() == "" {
			t.Fatalf("DecodeError(%q) returned an error that renders empty", body)
		}
		// Round-trip: re-encoding through the documented envelope and
		// decoding again must preserve code and message. JSON decoding
		// replaces invalid UTF-8, so only well-formed strings round-trip
		// byte-for-byte.
		if !utf8.ValidString(string(e.Code)) || !utf8.ValidString(e.Message) {
			return
		}
		wire, err := json.Marshal(Envelope{Err: *e})
		if err != nil {
			t.Fatalf("decoded error %+v does not re-encode: %v", e, err)
		}
		again := DecodeError(wire)
		if again == nil {
			t.Fatalf("re-encoded error %s does not decode", wire)
		}
		if again.Code != e.Code || again.Message != e.Message {
			t.Fatalf("round-trip changed the error: %+v -> %+v", e, again)
		}
	})
}
