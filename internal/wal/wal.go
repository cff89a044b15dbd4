// Package wal is the one durable log format perfplay keeps: the corpus
// index (internal/corpus) and the job journal (internal/journal) are
// each one wal file, a sequence of frames
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// with one JSON-encoded record per payload. Open replays every record in
// order. Only the final frame can be torn — cut short or
// checksum-damaged by a crash mid-append, and so never acknowledged —
// and Open cuts it off; damage anywhere else fails with ErrCorrupt
// naming the file and the offset, so nothing committed is silently
// dropped. Append is one write and one fsync. Once a log holds more
// than max(MinCompact, 2×live) records, Due reports it, and Rewrite
// replaces it with the owner's live state through WriteFile, so a crash
// mid-rewrite leaves the previous file whole.
//
// A Log is not safe for concurrent use: its owner serializes calls under
// its own mutex.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// MinCompact is the fewest records a log holds before Due reports it:
// a rewrite costs O(live) and comes only after as many appends, so a
// small log is not rewritten every few appends, and opening one replays
// at most a few hundred records.
const MinCompact = 256

const headerBytes = 8 // 4-byte length + 4-byte CRC32

// ErrCorrupt marks a frame damaged somewhere fsync promised it couldn't
// be, or whose record does not decode or the owner refused.
var ErrCorrupt = errors.New("corrupt record")

// Log is one log file, appended to at its end.
type Log struct {
	// NoSync skips Append's fsync — only for tests, where the process
	// outlives every assertion.
	NoSync bool

	path      string
	size      int64
	records   int
	truncated bool
}

// Open replays the log at path, decoding each frame's record into a T
// and passing it to apply in order, and creates an empty log if there is
// none. It removes a rewrite's leftover temp file and cuts off a torn
// final frame; otherwise opening an intact log writes nothing. A record
// that does not decode, or that apply refuses, fails Open with
// ErrCorrupt at that frame's offset.
func Open[T any](path string, apply func(T) error) (*Log, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), base+".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			err = f.Close()
			syncDir(path)
		}
	}
	if err != nil {
		return nil, err
	}
	l := &Log{path: path}
	corrupt := func(off int, format string, args ...any) error {
		return fmt.Errorf("%w: %s at %s offset %d", ErrCorrupt, fmt.Sprintf(format, args...), base, off)
	}
	for l.size < int64(len(data)) {
		rest, off := data[l.size:], int(l.size)
		if len(rest) < headerBytes {
			break // a header cut short
		}
		length := int(binary.LittleEndian.Uint32(rest))
		end := headerBytes + length
		if end > len(rest) {
			break // a payload cut short
		}
		if length == 0 {
			// No frame is empty: zeros to the end of the file are an
			// append whose size reached disk before its bytes did.
			if len(bytes.Trim(rest, "\x00")) == 0 {
				break
			}
			return nil, corrupt(off, "zero-length frame")
		}
		payload := rest[headerBytes:end]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:]) {
			if end == len(rest) {
				break // the final frame's payload torn
			}
			return nil, corrupt(off, "checksum mismatch")
		}
		var rec T
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, corrupt(off, "undecodable record: %v", err)
		}
		if err := apply(rec); err != nil {
			return nil, corrupt(off, "%v", err)
		}
		l.size += int64(end)
		l.records++
	}
	if l.size < int64(len(data)) {
		if err := os.Truncate(path, l.size); err != nil {
			return nil, fmt.Errorf("cutting torn tail of %s: %w", base, err)
		}
		l.truncated = true
	}
	return l, nil
}

// frames encodes recs, one frame each.
func frames(recs []any) ([]byte, error) {
	var buf []byte
	for _, rec := range recs {
		p, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("encode record: %w", err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(p))
		buf = append(buf, p...)
	}
	return buf, nil
}

// Append commits recs, each one frame, in one write and one fsync: they
// are durable when it returns nil. A failed append is cut back off, so a
// later good frame never follows a torn one.
func (l *Log) Append(recs ...any) error {
	buf, err := frames(recs)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, werr := f.Write(buf)
	if werr == nil && !l.NoSync {
		werr = f.Sync()
	}
	if werr != nil {
		// Best effort: should the cut fail too, the next Open reports the
		// damage rather than replaying past it.
		_ = f.Truncate(l.size)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("append %s: %w", filepath.Base(l.path), werr)
	}
	l.size += int64(len(buf))
	l.records += len(recs)
	return nil
}

// Due reports that a log whose live state is live records should be
// rewritten: it holds more than max(MinCompact, 2×live) records, so dead
// ones outnumber live ones and the Rewrite is paid for by the appends
// that made them.
func (l *Log) Due(live int) bool { return l.records > max(MinCompact, 2*live) }

// Rewrite replaces the log with recs, one frame each, through
// WriteFile, and fsyncs the directory so the rename is durable too.
func (l *Log) Rewrite(recs []any) error {
	buf, err := frames(recs)
	if err == nil {
		err = WriteFile(l.path, buf)
	}
	if err != nil {
		return err
	}
	syncDir(l.path)
	l.size, l.records = int64(len(buf)), len(recs)
	return nil
}

// Records is how many frames the log holds.
func (l *Log) Records() int { return l.records }

// Size is the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Truncated reports that Open cut off a torn final frame: evidence the
// previous writer died mid-append.
func (l *Log) Truncated() bool { return l.truncated }

// WriteFile writes data to path through a temp file beside it
// ("<path>.tmp…"), fsynced and then renamed over path, so a reader never
// sees a partial file and concurrent writers of the same path never
// share a temp file.
func WriteFile(path string, data []byte) error {
	base := filepath.Base(path)
	f, err := os.CreateTemp(filepath.Dir(path), base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("write %s: %w", base, werr)
	}
	return nil
}

// syncDir best-effort fsyncs path's directory, so a file's creation or
// a rename over it is itself durable.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
