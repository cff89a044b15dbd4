package jobs

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/journal"
)

// clock is a fake clock tests advance by hand.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// memLog is an in-memory TransitionLog: one "op job" line per record.
type memLog struct {
	mu   sync.Mutex
	recs []string
}

func (l *memLog) Transition(op string, j *Job) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, op+" "+j.ID)
}

func (l *memLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.recs)
}

func (l *memLog) ops(id string) []string {
	var out []string
	for _, r := range l.all() {
		if op, job, _ := strings.Cut(r, " "); job == id {
			out = append(out, op)
		}
	}
	return out
}

// cache is a fake local artifact store. It adopts only "good" tables
// and logs every table offered to it.
type cache struct {
	results, tables, digests map[string]bool
	imported                 []string
}

func (c *cache) HasResult(key string) bool    { return c.results[key] }
func (c *cache) HasTable(key string) bool     { return c.tables[key] }
func (c *cache) HasCached(digest string) bool { return c.digests[digest] }
func (c *cache) ImportTable(key, t string) bool {
	c.imported = append(c.imported, t)
	return t == "good"
}

// fakePeer scripts every peer a node calls, with no HTTP anywhere: the
// error paths httptest fixtures make awkward — timeouts, garbage
// statuses, peers vanishing between probe and claim. Each peer answers
// a probe with its status or error, a claim with its next job (or its
// claim error), and a fetch with its one result or table artifact, any
// other fetch missing. Every call is logged as "kind peer".
type fakePeer struct {
	status          map[string]clusterapi.PeerStatus
	probeErr        map[string]error
	claims          map[string][]clusterapi.StolenJob
	claimErr        map[string]error
	settleErr       error
	results, tables map[string]string // peer → artifact
	calls           []string
}

var _ Peer[string, string] = (*fakePeer)(nil)

// called lists the peers the calls of one kind went to, in order.
func (f *fakePeer) called(kind string) []string {
	var peers []string
	for _, c := range f.calls {
		if k, peer, _ := strings.Cut(c, " "); k == kind {
			peers = append(peers, peer)
		}
	}
	return peers
}

func (f *fakePeer) Probe(peer string) (clusterapi.PeerStatus, error) {
	f.calls = append(f.calls, "probe "+peer)
	if err := f.probeErr[peer]; err != nil {
		return clusterapi.PeerStatus{}, err
	}
	return f.status[peer], nil
}

func (f *fakePeer) Claim(peer, thief string) (clusterapi.StolenJob, bool, error) {
	f.calls = append(f.calls, "claim "+peer)
	if err := f.claimErr[peer]; err != nil {
		return clusterapi.StolenJob{}, false, err
	}
	q := f.claims[peer]
	if len(q) == 0 {
		return clusterapi.StolenJob{}, false, nil
	}
	f.claims[peer] = q[1:]
	return q[0], true, nil
}

func (f *fakePeer) Settle(victim, jobID string, res clusterapi.StealResult) error {
	f.calls = append(f.calls, "settle "+victim)
	return f.settleErr
}

func (f *fakePeer) FetchResult(peer, key string, _ int) (string, error) {
	f.calls = append(f.calls, "result "+peer)
	if r, ok := f.results[peer]; ok {
		return r, nil
	}
	return "", errors.New("miss")
}

func (f *fakePeer) FetchTable(peer, key string) (string, error) {
	f.calls = append(f.calls, "table "+peer)
	if t, ok := f.tables[peer]; ok {
		return t, nil
	}
	return "", errors.New("miss")
}

type harness struct {
	n        *Node[string, string]
	clk      *clock
	log      *memLog
	cache    *cache
	finished map[string]int
}

func newHarness(cfg Config[string, string]) *harness {
	h := &harness{
		clk:      &clock{now: time.Unix(1000, 0)},
		log:      &memLog{},
		cache:    &cache{results: map[string]bool{}, tables: map[string]bool{}, digests: map[string]bool{}},
		finished: map[string]int{},
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Lease == 0 {
		cfg.Lease = time.Minute
	}
	cfg.Now, cfg.Journal, cfg.Local = h.clk.Now, h.log, h.cache
	cfg.Finished = func(j *Job) { h.finished[j.ID]++ }
	h.n = New(cfg)
	return h
}

func (h *harness) admit(t *testing.T) string {
	t.Helper()
	return h.admitSpec(t, clusterapi.Spec{App: "pbzip2"})
}

// admitSpec admits a job with the given spec and returns its ID.
func (h *harness) admitSpec(t *testing.T, spec clusterapi.Spec) string {
	t.Helper()
	j := &Job{Spec: spec}
	if !h.n.Admit(j) {
		t.Fatal("admit refused")
	}
	return j.ID
}

func (h *harness) status(id string) (st Job) {
	h.n.With(id, func(j *Job) { st = *j })
	return st
}

func terminal(ops []string) int {
	n := 0
	for _, op := range ops {
		if op == journal.OpSettled || op == journal.OpFailed {
			n++
		}
	}
	return n
}

// finishedAs fails the test unless the journal holds exactly ops for the
// finished job id, one terminal record among them.
func (h *harness) finishedAs(t *testing.T, id string, ops ...string) {
	t.Helper()
	if got := h.log.ops(id); terminal(got) != 1 || !slices.Equal(got, ops) {
		t.Fatalf("journal for %s = %v, want %v with exactly one terminal record", id, got, ops)
	}
}

// A thief reporting after its lease was taken back gets ErrLeaseExpired;
// the requeued local run is the job's one terminal record.
func TestLateSettleAfterExpiry(t *testing.T) {
	h := newHarness(Config[string, string]{})
	id := h.admit(t)
	if _, _, ok := h.n.Claim("thief"); !ok {
		t.Fatal("nothing to claim")
	}
	if st := h.status(id); st.Status != Running || st.StolenBy != "thief" {
		t.Fatalf("claimed job = %+v", st)
	}
	h.clk.advance(2 * time.Minute)
	if n := h.n.Reap(); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if st := h.status(id); st.Status != Queued || st.StolenBy != "" {
		t.Fatalf("reaped job = %+v, want queued with no thief", st)
	}
	if _, err := h.n.Settle(id, "thief", core.Rendered{Report: "stale"}, ""); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late settle: err = %v, want ErrLeaseExpired", err)
	}
	qj, ok := h.n.TryPop()
	if !ok || qj.ID != id {
		t.Fatal("expired job not requeued")
	}
	h.n.Begin(qj)
	if !h.n.Finish(id, core.Rendered{Report: "fresh"}, "", nil) || h.n.Finish(id, core.Rendered{}, "", nil) {
		t.Fatal("Finish must succeed exactly once")
	}
	h.finishedAs(t, id, journal.OpAdmitted, journal.OpSettled)
	if st := h.status(id); st.Report != "fresh" || h.finished[id] != 1 {
		t.Fatalf("job = %+v finished %d times", st, h.finished[id])
	}
}

// Leases that expire into a closed node are abandoned: each job fails,
// counted once and journaled failed once, and none re-enters the queue
// a closed node's workers no longer drain.
func TestReapIntoClosedQueue(t *testing.T) {
	h := newHarness(Config[string, string]{})
	ids := []string{h.admit(t), h.admit(t)}
	h.n.Claim("thief")
	h.n.Claim("thief")
	h.n.Close()
	h.clk.advance(2 * time.Minute)
	if n := h.n.Reap(); n != 2 {
		t.Fatalf("reaped %d, want 2", n)
	}
	for _, id := range ids {
		st := h.status(id)
		if st.Status != Failed || !strings.Contains(st.Error, "abandoned") {
			t.Fatalf("job = %+v, want failed as abandoned", st)
		}
		h.finishedAs(t, id, journal.OpAdmitted, journal.OpFailed)
		if h.finished[id] != 1 {
			t.Fatalf("finished hook ran %d times, want 1", h.finished[id])
		}
	}
	if n := h.n.QueueLen(); n != 0 {
		t.Fatalf("queue len = %d: abandoned jobs re-entered the closed node", n)
	}
	if _, ok := h.n.Pop(); ok {
		t.Fatal("a worker popped from the closed node after the abandon")
	}
}

// Past MaxJobs the oldest finished job leaves the table and writes no
// record: its settle already retired it from the journal.
func TestEvictionPastMaxJobs(t *testing.T) {
	h := newHarness(Config[string, string]{Policy: Policy{MaxJobs: 2}})
	var ids []string
	for range 3 {
		id := h.admit(t)
		qj, _ := h.n.TryPop()
		h.n.Begin(qj)
		h.n.Finish(id, core.Rendered{}, "", nil)
		ids = append(ids, id)
	}
	if h.n.With(ids[0], func(*Job) {}) {
		t.Fatalf("%s still retained past MaxJobs", ids[0])
	}
	for _, id := range ids {
		h.finishedAs(t, id, journal.OpAdmitted, journal.OpSettled)
	}
}

var keys = Keys{Digest: "sha256:d", Result: "sha256:d|r", Table: "sha256:d|t"}

// A local result answers without a single probe.
func TestLocalResultProbesNoOne(t *testing.T) {
	h := newHarness(Config[string, string]{Peers: []string{"p1", "p2"}, Policy: Policy{ProbeFanout: 2}})
	h.cache.results[keys.Result] = true
	f := &fakePeer{results: map[string]string{"p1": "r"}}
	if src, _, _ := h.n.Start(keys, f, nil); src != LocalResult || len(f.calls) != 0 {
		t.Fatalf("source %v after probes %v, want a local hit and none", src, f.calls)
	}
}

// A peer's table is fetched only after the result probe misses
// everywhere, and only when no local table exists.
func TestTableImportOrder(t *testing.T) {
	peers := []string{"p1", "p2"}
	h := newHarness(Config[string, string]{Peers: peers, Policy: Policy{ProbeFanout: 2}})

	f := &fakePeer{results: map[string]string{"p2": "r"}, tables: map[string]string{"p1": "good"}}
	if src, r, peer := h.n.Start(keys, f, nil); src != PeerResult || r != "r" || peer != "p2" {
		t.Fatalf("Start = %v %q %q, want p2's result", src, r, peer)
	}
	if slices.ContainsFunc(f.calls, func(c string) bool { return strings.HasPrefix(c, "table") }) {
		t.Fatalf("probes %v: a table was fetched although a result hit", f.calls)
	}

	f = &fakePeer{tables: map[string]string{"p1": "bad", "p2": "good"}}
	if src, _, _ := h.n.Start(keys, f, nil); src != Run {
		t.Fatalf("source %v, want run", src)
	}
	want := []string{"result p1", "result p2", "table p1", "table p2"}
	if !slices.Equal(f.calls, want) || !slices.Equal(h.cache.imported, []string{"bad", "good"}) {
		t.Fatalf("probes %v imports %v, want %v and both tables offered", f.calls, h.cache.imported, want)
	}

	h.cache.tables[keys.Table] = true
	f = &fakePeer{tables: map[string]string{"p1": "good"}}
	h.n.Start(keys, f, nil)
	if !slices.Equal(f.calls, []string{"result p1", "result p2"}) {
		t.Fatalf("probes %v with a local table, want result probes only", f.calls)
	}

	h0 := newHarness(Config[string, string]{Peers: peers}) // fan-out 0: probing off
	f = &fakePeer{results: map[string]string{"p1": "r"}}
	if src, _, _ := h0.n.Start(keys, f, nil); src != Run || len(f.calls) != 0 {
		t.Fatalf("fan-out 0: source %v probes %v, want a run and no probes", src, f.calls)
	}
}

// The admission fallback probe runs only when gossip knows no healthy
// peer, at most once per StealInterval, and never with fan-out 0.
func TestRetryPeerFallbackRateLimited(t *testing.T) {
	p := &fakePeer{status: map[string]clusterapi.PeerStatus{"p1": {QueueLen: 0, QueueCap: 4}}}
	probes := func() int { return len(p.called("probe")) }
	h := newHarness(Config[string, string]{Peers: []string{"p1"}, Policy: Policy{ProbeFanout: 1, StealInterval: time.Second}, Peer: p})
	if peer, ok := h.n.RetryPeer(); !ok || peer != "p1" || probes() != 1 {
		t.Fatalf("RetryPeer = %q %v after %d probes, want p1 after one", peer, ok, probes())
	}
	h.n.Gossip.RecordErr("p1", errors.New("down"))
	if _, ok := h.n.RetryPeer(); ok || probes() != 1 {
		t.Fatalf("second round inside the interval: ok=%v probes=%d", ok, probes())
	}
	h.clk.advance(time.Second)
	if _, ok := h.n.RetryPeer(); !ok || probes() != 2 {
		t.Fatalf("round after the interval: ok=%v probes=%d", ok, probes())
	}
	h.n.Gossip.Record("p1", clusterapi.PeerStatus{QueueLen: 4, QueueCap: 4})
	h.clk.advance(time.Second)
	if _, ok := h.n.RetryPeer(); ok || probes() != 2 {
		t.Fatalf("healthy-but-full view: ok=%v probes=%d, want no redirect and no probe", ok, probes())
	}
	off := newHarness(Config[string, string]{Peers: []string{"p1"}, Peer: p})
	if _, ok := off.n.RetryPeer(); ok || probes() != 2 {
		t.Fatal("fan-out 0 probed")
	}
}

// Every gossip write counts, the admission fallback round's included:
// one healthy and one failing peer make one update of each result.
func TestRetryPeerFallbackCountsGossipUpdates(t *testing.T) {
	p := &fakePeer{
		status:   map[string]clusterapi.PeerStatus{"up": {QueueLen: 0, QueueCap: 4}},
		probeErr: map[string]error{"down": errors.New("connection refused")},
	}
	h := newHarness(Config[string, string]{Peers: []string{"down", "up"}, Policy: Policy{ProbeFanout: 2}, Peer: p})
	if peer, ok := h.n.RetryPeer(); !ok || peer != "up" {
		t.Fatalf("RetryPeer = %q %v, want up", peer, ok)
	}
	updates := h.n.Metrics.GossipUpdates
	if ok, errs := updates.With("ok").Int(), updates.With("err").Int(); ok != 1 || errs != 1 {
		t.Fatalf("gossip updates ok=%d err=%d, want 1 and 1", ok, errs)
	}
	if n := h.n.Metrics.StealProbes.Int(); n != 0 {
		t.Fatalf("steal probes = %d: the admission round is not the stealer's", n)
	}
}

// Admit, Claim, Settle, Begin/Finish and Reap racing from many
// goroutines: every job ends exactly once (run with -race).
func TestConcurrentLifecycle(t *testing.T) {
	h := newHarness(Config[string, string]{Policy: Policy{QueueDepth: 1 << 10, Lease: time.Millisecond}})
	var fin sync.Mutex
	h.n.Finished = func(j *Job) {
		fin.Lock()
		h.finished[j.ID]++
		fin.Unlock()
	}
	const jobs = 200
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs / 4 {
				h.n.Admit(&Job{Spec: clusterapi.Spec{App: fmt.Sprint(g, i)}})
				if j, _, ok := h.n.Claim("thief"); ok && i%3 != 0 {
					h.n.Settle(j.ID, "thief", core.Rendered{}, "")
				}
				h.clk.advance(time.Millisecond)
				h.n.Reap()
				if qj, ok := h.n.TryPop(); ok {
					j := h.n.Begin(qj)
					release := h.n.Occupy(j.ID)
					h.n.Finish(j.ID, core.Rendered{}, "", nil)
					release()
				}
			}
		}()
	}
	wg.Wait()
	for {
		h.clk.advance(time.Minute)
		h.n.Reap()
		qj, ok := h.n.TryPop()
		if !ok && h.n.ClaimedCount() == 0 {
			break
		}
		if ok {
			h.n.Finish(h.n.Begin(qj).ID, core.Rendered{}, "", nil)
		}
	}
	done := 0
	h.n.Each(func(j *Job) {
		if j.Status == Done {
			done++
		}
		if ops := h.log.ops(j.ID); h.finished[j.ID] != 1 || terminal(ops) != 1 || len(ops) != 2 {
			t.Errorf("%s finished %d times, journal %v", j.ID, h.finished[j.ID], h.log.ops(j.ID))
		}
	})
	if done != jobs || h.n.Running() != 0 {
		t.Fatalf("%d of %d jobs done, %d workers busy", done, jobs, h.n.Running())
	}
}

func TestDefaultsAreSane(t *testing.T) {
	d := Defaults()
	if d.Workers <= 0 || d.QueueDepth <= 0 || d.MaxJobs <= 0 || d.Lease <= 0 || d.StealInterval <= 0 ||
		d.ProbeFanout <= 0 || d.ProbeTimeout <= 0 || d.HintKeys <= 0 {
		t.Fatalf("Defaults() has a non-positive knob: %+v", d)
	}
}

// Or fills zero knobs only: a set knob, a negative StealInterval
// (stealing off) included, survives.
func TestOrFillsOnlyZeroKnobs(t *testing.T) {
	d := Defaults()
	if got := (Policy{}).Or(d); got != d {
		t.Fatalf("zero policy resolved to %+v, want %+v", got, d)
	}
	set := Policy{Workers: 7, StealInterval: -1, HintKeys: 3}
	want := d
	want.Workers, want.StealInterval, want.HintKeys = 7, -1, 3
	if got := set.Or(d); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}
