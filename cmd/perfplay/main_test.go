package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"perfplay/internal/pipeline"
	"perfplay/internal/trace"
)

// malformedTraces are files no recorder writes but any decoder accepts:
// each names something the trace does not have. An extension index
// outside Trace.Exts is not among them because no file can say one — no
// encoding stores the index, every decoder assigns it — so that row lives
// where traces are built in memory (replay's
// TestRunRejectsWhatTheTraceCannotBack, trace's
// TestValidateCatchesDanglingIndices). Nor are a constraint or a
// lockset: every writer refuses them and every decoder refuses bytes
// that carry them (trace's TestDecodeRefusesWhatNoRecordingHolds).
func malformedTraces() map[string]*trace.Trace {
	thread := trace.New("thread", 1)
	thread.Append(trace.Event{Thread: 3, Kind: trace.KCompute, Cost: 10})

	held := trace.New("held", 1)
	held.Append(trace.Event{Thread: 0, Kind: trace.KLockAcq, Lock: 1})

	op := trace.New("op", 2)
	for th := int32(0); th < 2; th++ { // two sections of one lock writing one address: a conflicting pair
		op.Append(trace.Event{Thread: th, Kind: trace.KLockAcq, Lock: 1})
		op.Append(trace.Event{Thread: th, Kind: trace.KWrite, Addr: 5, Value: 1, Op: 7})
		op.Append(trace.Event{Thread: th, Kind: trace.KLockRel, Lock: 1})
	}

	return map[string]*trace.Trace{
		"thread id": thread, "lock held at the end": held, "write op": op,
		"empty": trace.New("empty", 0),
	}
}

// TestMalformedTraceFilesAreErrors: -replay on a decodable but
// inconsistent trace file reports an error; it used to index out of
// range inside the replayer, or (the write op) inside identification, and
// to replay an event-free trace as "0 events, 0 threads".
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
		}
	}
}

// TestUnhonouredFlagIsAnError walks every mode × every flag: starting
// from the arguments that select a mode, adding one more flag either is
// honoured (listed here) or is an error naming the flag and the mode —
// never a run that silently drops it. A flag that selects an
// earlier-dispatched mode switches to it; that is accepted only when the
// new mode honours the original arguments too.
func TestUnhonouredFlagIsAnError(t *testing.T) {
	const recording = " threads scale seed"
	const reporting = " top schemes races"
	// The value each mode-selecting flag gets; every other flag is set to
	// its default, which Visit still reports as set.
	values := map[string]string{
		"list": "true", "replay": "a.trace", "trace-digest": "sha256:0",
		"case": "1", "app": "mysql",
	}
	var all []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			all = append(all, f.Name)
		}
	})
	if len(all) != 19 {
		t.Fatalf("perfplay defines %d flags, the table was written for 19: %v", len(all), all)
	}
	// check sets the named flags, asks checkFlags, and restores defaults.
	check := func(set []string) (string, error) {
		for _, name := range set {
			v := values[name]
			if v == "" {
				v = flag.Lookup(name).DefValue
			}
			if err := flag.Set(name, v); err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			for _, name := range set {
				flag.Set(name, flag.Lookup(name).DefValue)
			}
		}()
		return checkFlags(set)
	}

	for _, m := range []struct {
		mode, selectors, accepted string
	}{
		{"-list", "list", "list"},
		{"-replay", "replay", "replay sched"},
		{"-trace-digest", "trace-digest", "trace-digest corpus verify" + reporting},
		{"-case", "case", "case verify" + recording + reporting},
		{"-app", "app", "app input verify le trace trace-format " +
			"save-trace corpus" + recording + reporting},
	} {
		selectors := strings.Fields(m.selectors)
		if got, err := check(selectors); got != m.mode || err != nil {
			t.Fatalf("%v selects mode %q (%v), want %q", selectors, got, err, m.mode)
		}
		for _, name := range all {
			set := append(slices.Clone(selectors), name)
			mode, err := check(set)
			if slices.Contains(strings.Fields(m.accepted), name) {
				if err != nil {
					t.Errorf("%v: %v", set, err)
				}
			} else if err == nil {
				t.Errorf("%v: accepted, but %s mode drops -%s", set, mode, name)
			} else if !strings.Contains(err.Error(), " has no effect in "+mode+" mode") {
				t.Errorf("%v: error does not name the flag and the mode: %v", set, err)
			}
		}
	}
}

// TestTraceFormatCheckedBeforeRecording: an unknown -trace-format is
// refused before anything is recorded or any file is created; it used to
// run the whole analysis, print the report, leave an empty -trace file
// and only then exit 1. The workload name is one the pipeline rejects, so
// an analysis that ran first would fail with that error instead. Each
// known format writes a file that reads back whole.
func TestTraceFormatCheckedBeforeRecording(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.trace")
	setTraceFlags := func(format string) {
		flag.Set("trace", path)
		flag.Set("trace-format", format)
	}
	defer func() {
		flag.Set("trace", "")
		flag.Set("trace-format", trace.FormatBinary)
	}()

	setTraceFlags("bogus")
	err := analyzeApp(pipeline.Request{App: "no-such-workload"})
	if err == nil || !strings.Contains(err.Error(), "-trace-format") {
		t.Fatalf("err = %v, want the -trace-format error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s was created (stat: %v)", path, err)
	}

	for _, format := range []string{trace.FormatBinary, trace.FormatJSON, trace.FormatColumnar} {
		setTraceFlags(format)
		if err := analyzeApp(pipeline.Request{App: "pbzip2", Threads: 2, Scale: 0.1, Seed: 1}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		tr, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if len(tr.Events) == 0 {
			t.Fatalf("%s: the file read back holds no events", format)
		}
	}
}

// TestSimProbeFanoutReachesStealScenarios: every simulated scenario runs
// the shipped node, so the cache knobs reach the steal scenarios too —
// -probe-fanout used to be silently ignored outside the cache scenarios.
func TestSimProbeFanoutReachesStealScenarios(t *testing.T) {
	sim := func(args ...string) string {
		var out bytes.Buffer
		if code := runSim(args, &out); code != 0 {
			t.Fatalf("perfplay sim %v exited %d", args, code)
		}
		return out.String()
	}
	def := sim("-scenario", "skewed")
	if one := sim("-scenario", "skewed", "-probe-fanout", "1"); one == def {
		t.Fatalf("-probe-fanout 1 left the skewed report unchanged:\n%s", def)
	}
}
