package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Encoding names for the on-disk trace formats, as reported by
// DetectFormat and recorded in corpus metadata.
const (
	FormatBinary   = "binary"
	FormatJSON     = "json"
	FormatColumnar = "columnar"
)

// DetectFormat reports which encoding raw trace bytes carry, by the
// magic numbers of the two binary formats. Anything without a magic is
// assumed JSON; whether it actually parses is Decode's job.
func DetectFormat(data []byte) string {
	if len(data) >= 4 {
		switch binary.LittleEndian.Uint32(data) {
		case binMagic:
			return FormatBinary
		case colMagic:
			return FormatColumnar
		}
	}
	return FormatJSON
}

// Decode decodes a trace in the row-binary, columnar, or JSON encoding,
// handing it to the one decoder DetectFormat names: neither magic can
// start a JSON text, so no input is refused that another decoder would
// take. This is the loader every consumer of stored or uploaded traces
// shares — the corpus, the analysis daemon's upload and steal paths,
// and (through ReadFile) the CLI's -replay. The trace keeps no
// reference to data.
func Decode(data []byte) (*Trace, error) {
	switch DetectFormat(data) {
	case FormatBinary:
		return DecodeBinary(data)
	case FormatColumnar:
		return ParseColumnar(data)
	}
	tr, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("trace: no binary or columnar magic, and not JSON: %w", err)
	}
	return tr, nil
}

// readAll reads r to its end, into one buffer of the right size when r
// can tell how much is left.
func readAll(r io.Reader) ([]byte, error) {
	var size int64
	if s, ok := r.(io.Seeker); ok {
		if cur, err := s.Seek(0, io.SeekCurrent); err == nil {
			if end, err := s.Seek(0, io.SeekEnd); err == nil {
				size = end - cur
			}
			if _, err := s.Seek(cur, io.SeekStart); err != nil {
				return nil, err
			}
		}
	}
	// MinRead spare bytes let ReadFrom see the end without growing.
	buf := bytes.NewBuffer(make([]byte, 0, max(size, 0)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// ReadAny is Decode over everything left in r.
func ReadAny(r io.ReadSeeker) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return Decode(data)
}

// ReadFile loads a trace file in any encoding.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
