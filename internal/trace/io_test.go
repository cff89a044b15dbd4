package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// noMagicNotJSON is what Decode says of bytes that carry neither binary
// magic and do not parse as JSON: it names all three formats.
const noMagicNotJSON = "no binary or columnar magic, and not JSON"

func TestReadAnySniffsBothEncodings(t *testing.T) {
	tr := buildSample()

	var bin, js bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"binary": bin.Bytes(), "json": js.Bytes()} {
		got, err := ReadAny(bytes.NewReader(payload))
		if err != nil {
			t.Fatalf("%s: ReadAny: %v", name, err)
		}
		if got.App != tr.App || len(got.Events) != len(tr.Events) {
			t.Fatalf("%s: round trip mismatch: %s/%d events", name, got.App, len(got.Events))
		}
	}

	if _, err := ReadAny(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	} else if !strings.Contains(err.Error(), noMagicNotJSON) {
		t.Fatalf("err = %v", err)
	}
}

// TestReadAnyRejectsMalformed table-drives the content-sniffing loader
// over hostile inputs: every case must come back as an error — never a
// panic, never a silently empty trace — and from the decoder its magic
// names: a cut-short binary file gets the binary decoder's own error.
func TestReadAnyRejectsMalformed(t *testing.T) {
	tr := buildSample()
	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}

	// An otherwise-valid binary header that declares an absurd App
	// string length: the length guard must fire before any attempt to
	// allocate or read that much.
	oversized := make([]byte, 0, 12)
	oversized = append(oversized, bin.Bytes()[:8]...) // magic + version
	oversized = binary.LittleEndian.AppendUint32(oversized, 1<<24)

	cases := map[string]struct {
		data    []byte
		wantErr string // substring of the returned error
	}{
		"empty file":             {data: nil, wantErr: noMagicNotJSON},
		"truncated header":       {data: bin.Bytes()[:6], wantErr: "trace: read binary: "},
		"truncated mid-events":   {data: bin.Bytes()[:bin.Len()/2], wantErr: "trace: read binary: "},
		"truncated last byte":    {data: bin.Bytes()[:bin.Len()-1], wantErr: "trace: read binary: "},
		"bad magic":              {data: []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4}, wantErr: noMagicNotJSON},
		"oversized string field": {data: oversized, wantErr: "exceeds limit"},
		"invalid json":           {data: []byte(`{"app": "x", "events": [`), wantErr: "json"},
		"json wrong shape":       {data: []byte(`{"events": "not-an-array"}`), wantErr: "json"},
		"garbage text":           {data: []byte("definitely not a trace"), wantErr: noMagicNotJSON},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := ReadAny(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("accepted %d malformed bytes: %d events", len(tc.data), len(got.Events))
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestDetectFormat(t *testing.T) {
	tr := buildSample()
	var bin, js bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for data, want := range map[*bytes.Buffer]string{&bin: FormatBinary, &js: FormatJSON} {
		if got := DetectFormat(data.Bytes()); got != want {
			t.Fatalf("DetectFormat = %q, want %q", got, want)
		}
	}
	if got := DetectFormat(nil); got != FormatJSON {
		t.Fatalf("DetectFormat(nil) = %q", got)
	}
}

func TestReadFile(t *testing.T) {
	tr := buildSample()
	path := filepath.Join(t.TempDir(), "t.trace")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != tr.App {
		t.Fatalf("got app %q", got.App)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}
