package main

import (
	"os"
	"path/filepath"
	"testing"

	"perfplay/internal/trace"
)

// malformedTraces are files no recorder writes but any decoder accepts:
// each names something the trace does not have. An extension index
// outside Trace.Exts is not among them because no file can say one — no
// encoding stores the index, every decoder assigns it — so that row lives
// where traces are built in memory (replay's
// TestRunRejectsWhatTheTraceCannotBack, trace's
// TestValidateCatchesDanglingIndices).
func malformedTraces() map[string]*trace.Trace {
	thread := trace.New("thread", 1)
	thread.Append(trace.Event{Thread: 3, Kind: trace.KCompute, Cost: 10})

	constraint := trace.New("constraint", 1)
	constraint.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 10})
	constraint.Constraints = []trace.Constraint{{After: 99, Before: 0}}

	source := trace.New("source", 1)
	aux := []trace.LockID{trace.AuxLockBase + 1}
	source.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq}, trace.EventExt{Locks: aux, Sources: []int32{77}})
	source.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel}, trace.EventExt{Locks: aux})

	op := trace.New("op", 2)
	for th := int32(0); th < 2; th++ { // two sections of one lock writing one address: a conflicting pair
		op.Append(trace.Event{Thread: th, Kind: trace.KLockAcq, Lock: 1})
		op.Append(trace.Event{Thread: th, Kind: trace.KWrite, Addr: 5, Value: 1, Op: 7})
		op.Append(trace.Event{Thread: th, Kind: trace.KLockRel, Lock: 1})
	}

	return map[string]*trace.Trace{
		"thread id": thread, "constraint index": constraint, "lockset source": source, "write op": op,
	}
}

// TestMalformedTraceFilesAreErrors: -replay and -diff on a decodable but
// inconsistent trace file report an error; they used to index out of
// range inside the replayer, or (the write op) inside identification.
func TestMalformedTraceFilesAreErrors(t *testing.T) {
	dir := t.TempDir()
	for name, tr := range malformedTraces() {
		for _, format := range []string{trace.FormatBinary, trace.FormatJSON} {
			path := filepath.Join(dir, tr.App+"."+format)
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if format == trace.FormatBinary {
				err = tr.WriteBinary(f)
			} else {
				err = tr.WriteJSON(f)
			}
			if cerr := f.Close(); err != nil || cerr != nil {
				t.Fatal(err, cerr)
			}
			for _, sched := range []string{"orig", "elsc", "sync", "mem"} {
				if err := replayFile(path, sched); err == nil {
					t.Errorf("%s (%s): -replay -sched %s succeeded", name, format, sched)
				}
			}
			if err := diffFiles(path, path); err == nil {
				t.Errorf("%s (%s): -diff succeeded", name, format)
			}
		}
	}
}
