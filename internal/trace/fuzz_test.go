package trace

import (
	"bytes"
	"testing"
)

// FuzzDetectFormat: the format sniffer must be total and deterministic,
// and must agree with the magic-guarded decoders — anything it calls
// JSON has to be refused by both DecodeBinary and ParseColumnar, and
// anything it calls columnar refused by DecodeBinary (and vice versa), or
// the sniffer and the loaders would disagree about how to parse the
// same corpus blob.
func FuzzDetectFormat(f *testing.F) {
	tr := buildSample()
	var bin, col, js bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		f.Fatal(err)
	}
	if err := tr.WriteColumnar(&col); err != nil {
		f.Fatal(err)
	}
	if err := tr.WriteJSON(&js); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(col.Bytes())
	f.Add(js.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x46, 0x52, 0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := DetectFormat(data)
		if got != FormatBinary && got != FormatJSON && got != FormatColumnar {
			t.Fatalf("unknown format %q", got)
		}
		if again := DetectFormat(data); again != got {
			t.Fatalf("non-deterministic: %q then %q", got, again)
		}
		if got != FormatBinary {
			if _, err := DecodeBinary(data); err == nil {
				t.Fatalf("binary decoder accepted bytes DetectFormat called %s", got)
			}
		}
		if got != FormatColumnar {
			if _, err := ParseColumnar(data); err == nil {
				t.Fatalf("columnar parser accepted bytes DetectFormat called %s", got)
			}
		}
	})
}
