package jobs

import (
	"cmp"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/journal"
)

// journalLog is a TransitionLog over a real journal, as perfplayd's. It
// remembers where the last frame starts and what the journal held live
// before it, so a test can cut that frame short.
type journalLog struct {
	t          *testing.T
	jr         *journal.Journal
	ops        map[string][]string // job → ops journaled, in order
	frames     int
	lastStart  int64    // byte offset of the last frame
	beforeLast []string // live IDs before the last frame
}

func (l *journalLog) Transition(op string, j *Job) {
	l.beforeLast = journalIDs(l.jr.Live())
	l.lastStart = l.jr.Stats().Bytes
	rec := journal.Record{Op: op, Job: j.ID}
	if op == journal.OpAdmitted {
		rec.Spec, _ = json.Marshal(j.Spec)
	}
	if err := l.jr.Append(rec); err != nil {
		l.t.Errorf("append %s %s: %v", op, j.ID, err)
	}
	l.ops[j.ID] = append(l.ops[j.ID], op)
	l.frames++
}

func journalIDs(live []journal.LiveJob) []string {
	ids := []string{}
	for _, lj := range live {
		ids = append(ids, lj.Job)
	}
	return ids
}

// nodeLive lists the node's non-terminal jobs in admit order, which
// is ID order: a restored job keeps its ID and the sequence moves past
// it.
func nodeLive(n *Node[string, string]) []string {
	var live []*Job
	n.Each(func(j *Job) {
		if j.Status != Done && j.Status != Failed {
			live = append(live, j)
		}
	})
	slices.SortFunc(live, func(a, b *Job) int {
		sa, _ := Seq(a.ID)
		sb, _ := Seq(b.ID)
		return cmp.Compare(sa, sb)
	})
	ids := []string{}
	for _, j := range live {
		ids = append(ids, j.ID)
	}
	return ids
}

// segment reads the journal's one segment file in dir.
func segment(t *testing.T, dir string) (name string, data []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("journal segments %v (%v), want one", segs, err)
	}
	data, err = os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(segs[0]), data
}

// openCopy opens data as the one segment of a journal in scratch and
// returns what it holds live and whether Open salvaged a torn tail.
func openCopy(t *testing.T, scratch, name string, data []byte) ([]string, bool) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(scratch, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	jr, err := journal.Open(scratch, journal.Options{NoSync: true})
	if err != nil {
		t.Fatalf("open a copy of %d bytes: %v", len(data), err)
	}
	defer jr.Close()
	return journalIDs(jr.Live()), jr.Stats().TruncatedTail
}

// TestJournalMatchesNode is the journal's oracle: a scripted node
// journals into a real journal, and after every step a fresh Open of a
// copy of the journal holds live exactly the node's non-terminal jobs,
// in admit order. The step's last frame, cut short at every byte,
// opens as the state before it with the torn tail reported. Every
// finished job is journaled admitted, then settled or failed, once.
func TestJournalMatchesNode(t *testing.T) {
	dir, scratch := t.TempDir(), t.TempDir()
	clk := &clock{now: time.Unix(1000, 0)}
	c := &cache{results: map[string]bool{"hit": true}, tables: map[string]bool{}, digests: map[string]bool{}}
	ops := map[string][]string{}
	var n *Node[string, string]
	var log *journalLog
	boot := func() {
		jr, err := journal.Open(dir, journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		frames := 0
		if log != nil {
			frames = log.frames
		}
		log = &journalLog{t: t, jr: jr, ops: ops, frames: frames}
		n = New(Config[string, string]{
			Policy: Policy{QueueDepth: 4, MaxJobs: 2, Lease: time.Minute},
			Now:    clk.Now, Journal: log, Local: c,
		})
	}
	boot()
	admit := func() {
		if !n.Admit(&Job{Spec: clusterapi.Spec{App: "pbzip2"}}) {
			t.Fatal("admit refused")
		}
	}
	run := func(err error) {
		j, ok := n.TryPop()
		if !ok {
			t.Fatal("nothing to pop")
		}
		n.Begin(j)
		if !n.Finish(j.ID, core.Rendered{}, "", err) {
			t.Fatalf("finish %s refused", j.ID)
		}
	}
	claim := func(thief, want string) {
		if j, _, ok := n.Claim(thief); !ok || j.ID != want {
			t.Fatalf("claim = %s, %t; want %s", j.ID, ok, want)
		}
	}
	settle := func(id, thief, errMsg string) {
		if _, err := n.Settle(id, thief, core.Rendered{}, errMsg); err != nil {
			t.Fatalf("settle %s: %v", id, err)
		}
	}

	steps := []struct {
		name string
		do   func()
	}{
		{"admit four", func() {
			for range 4 {
				admit()
			}
		}},
		{"admit refused past QueueDepth", func() {
			if n.Admit(&Job{Spec: clusterapi.Spec{App: "x"}}) {
				t.Fatal("admit past QueueDepth accepted")
			}
		}},
		{"pop a result-cache hit and settle it", func() {
			j, _ := n.TryPop()
			n.Begin(j)
			if src, _, _ := n.Start(Keys{Result: "hit"}, nil, nil); src != LocalResult {
				t.Fatalf("source %v, want a local hit", src)
			}
			n.Finish(j.ID, core.Rendered{Report: "cached"}, "", nil)
		}},
		{"claim", func() { claim("thief-1", "job-4") }},
		{"settle ok", func() { settle("job-4", "thief-1", "") }},
		{"claim", func() { claim("thief-2", "job-3") }},
		{"settle failed, past MaxJobs", func() { settle("job-3", "thief-2", "boom") }},
		{"claim", func() { claim("thief-3", "job-2") }},
		{"reap a lapsed lease", func() {
			clk.advance(2 * time.Minute)
			if got := n.Reap(); got != 1 {
				t.Fatalf("reaped %d, want 1", got)
			}
		}},
		{"late settle after the lapse", func() {
			if _, err := n.Settle("job-2", "thief-3", core.Rendered{}, ""); err == nil {
				t.Fatal("late settle accepted")
			}
		}},
		{"run the requeued job, failed past MaxJobs", func() { run(errors.New("boom")) }},
		{"admit three", func() {
			for range 3 {
				admit()
			}
		}},
		{"claim", func() { claim("thief-4", "job-7") }},
		{"pop one", func() {
			j, _ := n.TryPop()
			n.Begin(j)
		}},
		{"close and reap", func() {
			n.Close()
			clk.advance(2 * time.Minute)
			if got := n.Reap(); got != 1 {
				t.Fatalf("reaped %d, want 1", got)
			}
		}},
		{"restart and recover", func() {
			if err := log.jr.Close(); err != nil {
				t.Fatal(err)
			}
			boot()
			var live []*Job
			for _, lj := range log.jr.Live() {
				j := &Job{ID: lj.Job, Spec: clusterapi.Spec{App: "pbzip2"}}
				n.Restore(j)
				live = append(live, j)
			}
			if lost := n.Recover(live); len(lost) != 0 {
				t.Fatalf("lost %d jobs recovering", len(lost))
			}
		}},
		{"run the recovered jobs", func() {
			run(nil)
			run(nil)
		}},
	}
	for _, st := range steps {
		frames := log.frames
		st.do()
		want := nodeLive(n)
		name, data := segment(t, dir)
		if got, torn := openCopy(t, scratch, name, data); !slices.Equal(got, want) || torn {
			t.Fatalf("after %q: journal live %v (torn tail %t), node live %v", st.name, got, torn, want)
		}
		if log.frames == frames {
			continue
		}
		for cut := log.lastStart + 1; cut < int64(len(data)); cut++ {
			if got, torn := openCopy(t, scratch, name, data[:cut]); !slices.Equal(got, log.beforeLast) || !torn {
				t.Fatalf("after %q cut at %d: live %v (torn tail %t), want %v torn", st.name, cut, got, torn, log.beforeLast)
			}
		}
	}
	if err := log.jr.Close(); err != nil {
		t.Fatal(err)
	}

	// job-5 and job-6 were live at the restart, so each has a second
	// admitted record; every other job has exactly two records.
	want := map[string]string{
		"job-1": "admitted settled", "job-2": "admitted failed", "job-3": "admitted failed",
		"job-4": "admitted settled", "job-5": "admitted admitted settled", "job-6": "admitted admitted settled",
		"job-7": "admitted failed",
	}
	for id, w := range want {
		if got := strings.Join(ops[id], " "); got != w || terminal(ops[id]) != 1 {
			t.Errorf("journal for %s = %q, want %q", id, got, w)
		}
	}
	if len(ops) != len(want) {
		t.Errorf("journal names %d jobs, want %d", len(ops), len(want))
	}
}
