package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/jobs"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// saturatedVictim builds a daemon whose workers never start — the
// deterministic stand-in for a node too overloaded to reach its own
// queue — so everything it accepts stays stealable until someone claims
// it. The reaper can be armed later via Start.
func saturatedVictim(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CorpusDir == "" {
		cfg.CorpusDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// thiefServer builds a started daemon whose stealer polls the given
// victims at test cadence.
func thiefServer(t *testing.T, victims ...string) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := testServer(t, Config{Peers: victims, Policy: jobs.Policy{StealInterval: 5 * time.Millisecond}})
	s.StartStealer(ts.URL)
	return s, ts
}

// TestWholeJobStealCompletesOnIdlePeer is the headline acceptance test:
// a workload job submitted to saturated node A completes on idle node B
// via a whole-job steal, byte-identical to the committed golden (and
// therefore to a serial single-node run), while A's client keeps
// polling A and never learns the job moved — except through the
// stolen_by field.
func TestWholeJobStealCompletesOnIdlePeer(t *testing.T) {
	_, victim := saturatedVictim(t, Config{})
	_, thief := thiefServer(t, victim.URL)

	resp := postJSON(t, victim.URL+"/analyze", goldenSpecs[0].spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	j := waitDone(t, victim.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("stolen job failed: %v", j["error"])
	}
	if report, want := j["report"].(string), goldenReport(t, goldenSpecs[0].name); report != want {
		t.Fatalf("stolen report differs from golden:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if j["stolen_by"] != thief.URL {
		t.Fatalf("stolen_by = %v, want %s", j["stolen_by"], thief.URL)
	}
	m := scrape(t, thief.URL)
	if claims, failures := m["perfplay_scheduler_steal_claims_total"], m["perfplay_scheduler_steal_failures_total"]; claims != 1 || failures != 0 {
		t.Fatalf("thief steal claims = %v, failures = %v, want 1 and 0", claims, failures)
	}

	// The thief's healthz gossips the victim's queue depth.
	hz, err := http.Get(thief.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[map[string]any](t, hz)
	steal, _ := h["steal"].(map[string]any)
	if steal == nil || steal["enabled"] != true {
		t.Fatalf("thief healthz steal section = %v", steal)
	}
	if _, ok := steal["peer_queues"].(map[string]any)[victim.URL]; !ok {
		t.Fatalf("thief gossip missing the victim: %v", steal["peer_queues"])
	}
}

// TestWholeJobStealTraceDigest: a stored-trace job steals too — the
// thief pulls the blob from the victim's corpus by content digest
// (hash-verified), caches it locally, and produces the identical
// report a local run of the same digest yields.
func TestWholeJobStealTraceDigest(t *testing.T) {
	victimSrv, victim := saturatedVictim(t, Config{})
	payload := recordedPayload(t, 3)
	meta, _, err := victimSrv.corpus.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}

	// The reference output: the same digest job run on an ordinary
	// standalone daemon holding the same blob.
	refSrv, ref := testServer(t, Config{})
	if _, _, err := refSrv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	spec := `{"trace":"` + meta.Digest + `","schemes":true}`
	want := runJobReport(t, ref.URL, spec)

	thiefSrv, _ := thiefServer(t, victim.URL)
	resp := postJSON(t, victim.URL+"/analyze", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	j := waitDone(t, victim.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("stolen digest job failed: %v", j["error"])
	}
	if j["report"] != want {
		t.Fatalf("stolen digest report differs:\nwant:\n%s\ngot:\n%s", want, j["report"])
	}
	// The thief's corpus now holds the victim's blob (content pull).
	if _, err := thiefSrv.corpus.Stat(meta.Digest); err != nil {
		t.Fatalf("thief corpus missing the stolen trace: %v", err)
	}
}

// TestThiefCrashLeaseExpiry: a thief that claims a job and vanishes
// costs one lease, not the job — the reaper re-queues it, a local
// worker completes it with golden-identical output, and the thief's
// eventual late result is rejected with 409.
func TestThiefCrashLeaseExpiry(t *testing.T) {
	srv, ts := saturatedVictim(t, Config{Policy: jobs.Policy{Lease: 50 * time.Millisecond}})

	resp := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec)
	sub := decode[map[string]string](t, resp)

	// A "thief" claims the job... and crashes (never reports).
	claim := postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://doomed:1"}`)
	if claim.StatusCode != http.StatusOK {
		t.Fatalf("claim: status %d", claim.StatusCode)
	}
	stolen := decode[clusterapi.StolenJob](t, claim)
	if stolen.ID != sub["id"] || stolen.Spec.App != "pbzip2" {
		t.Fatalf("claimed %+v, want job %s", stolen, sub["id"])
	}
	// The client now sees the job running elsewhere.
	st, err := http.Get(ts.URL + "/jobs/" + sub["id"])
	if err != nil {
		t.Fatal(err)
	}
	if mid := decode[map[string]any](t, st); mid["status"] != statusRunning || mid["stolen_by"] != "http://doomed:1" {
		t.Fatalf("mid-steal job = %v", mid)
	}

	time.Sleep(100 * time.Millisecond) // let the lease lapse
	srv.Start()                        // arms the reaper and the local workers

	j := waitDone(t, ts.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("job lost after thief crash: %v", j["error"])
	}
	if report, want := j["report"].(string), goldenReport(t, goldenSpecs[0].name); report != want {
		t.Fatalf("post-expiry local report differs from golden:\nwant:\n%s\ngot:\n%s", want, report)
	}
	if j["stolen_by"] != nil {
		t.Fatalf("stolen_by = %v after local recovery, want empty", j["stolen_by"])
	}

	// The crashed thief limps back with a stale result: rejected, and
	// the settled job is untouched.
	late := postJSON(t, ts.URL+"/jobs/"+sub["id"]+"/result",
		`{"thief":"http://doomed:1","summary":{"report":"stale"}}`)
	defer late.Body.Close()
	if late.StatusCode != http.StatusConflict {
		t.Fatalf("late result: status %d, want 409", late.StatusCode)
	}
	if j2 := decode[map[string]any](t, mustGet(t, ts.URL+"/jobs/"+sub["id"])); j2["report"] != j["report"] {
		t.Fatal("late result overwrote the settled job")
	}
}

// abortResults wraps a victim handler so POST /jobs/{id}/result severs
// the connection — the victim "crashes" at the worst moment, after the
// thief did the work but before the result lands.
type abortResults struct {
	inner http.Handler
}

func (a *abortResults) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/result") {
		panic(http.ErrAbortHandler)
	}
	a.inner.ServeHTTP(w, r)
}

// TestVictimCrashMidSteal: the victim dies between claim and result.
// The thief must count a failure, stay healthy, and keep serving its
// own jobs; the stolen result is simply dropped (the victim's lease
// would have recovered the job had the victim lived).
func TestVictimCrashMidSteal(t *testing.T) {
	victimSrv, err := NewServer(Config{CorpusDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	victim := httptest.NewServer(&abortResults{inner: victimSrv.Handler()})
	t.Cleanup(func() {
		victim.Close()
		victimSrv.Close()
	})

	thiefSrv, thief := thiefServer(t, victim.URL)
	resp := postJSON(t, victim.URL+"/analyze", goldenSpecs[0].spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for thiefSrv.node.Metrics.StealFailures.Int() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("thief never recorded the failed result report")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The thief is unharmed: its own jobs still run to completion.
	if report, want := runJobReport(t, thief.URL, goldenSpecs[0].spec), goldenReport(t, goldenSpecs[0].name); report != want {
		t.Fatalf("thief report after victim crash differs from golden:\nwant:\n%s\ngot:\n%s", want, report)
	}
}

// TestClaimEndpointEdges pins the protocol's edges: empty queue → 204,
// malformed body → 400, a job with an empty (unstealable) spec is never
// offered, and a result for an unclaimed job → 409.
func TestClaimEndpointEdges(t *testing.T) {
	srv, ts := saturatedVictim(t, Config{})

	resp := postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://x"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("empty-queue claim: status %d, want 204", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/jobs/claim", `{nope`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed claim: status %d, want 400", resp.StatusCode)
	}

	// No route admits a job a peer could not reproduce; the node still
	// refuses to offer one.
	if !srv.node.Admit(newJob(clusterapi.Spec{}, "")) {
		t.Fatal("admit refused")
	}
	if n := srv.node.Status(nil).Stealable; n != 0 {
		t.Fatalf("%d empty-spec jobs advertised as stealable", n)
	}
	resp = postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://x"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("claim with only an empty-spec job queued: status %d, want 204", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/jobs/job-999/result", `{"thief":"x","summary":{}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result for unclaimed job: status %d, want 409", resp.StatusCode)
	}

	// GET /steal is a cheap truthful probe.
	probe := decode[clusterapi.PeerStatus](t, mustGet(t, ts.URL+"/steal"))
	if probe.QueueLen != 1 || probe.Stealable != 0 {
		t.Fatalf("probe = %+v, want 1 queued / 0 stealable", probe)
	}
}

// TestStolenTraceFetchFailureAbandons: a thief that cannot obtain the
// stolen job's trace must abandon the steal (so the victim's lease
// recovers the job) rather than settle it as failed — while a trace the
// thief does hold resolves from its own corpus, dead victim or not.
func TestStolenTraceFetchFailureAbandons(t *testing.T) {
	srv, _ := testServer(t, Config{})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	spec := clusterapi.Spec{TraceDigest: "sha256:" + strings.Repeat("ab", 32)}
	_, err := srv.requestFor(deadURL, spec, spanCtx{})
	if err == nil || !strings.Contains(err.Error(), "stolen trace unavailable") {
		t.Fatalf("unreachable victim: err = %v, want errStolenTraceUnavailable", err)
	}

	payload := recordedPayload(t, 9)
	meta, _, perr := srv.corpus.Put(payload, false)
	if perr != nil {
		t.Fatal(perr)
	}
	req, err := srv.requestFor(deadURL, clusterapi.Spec{TraceDigest: meta.Digest}, spanCtx{})
	if err != nil {
		t.Fatal(err)
	}
	if req.TraceDigest != meta.Digest || req.TraceLoader == nil {
		t.Fatalf("locally held trace did not resolve to a loader: %+v", req)
	}
}

// TestRequestForWithoutVictimResolvesLocally: boot recovery resolves a
// journaled digest spec with no victim to fall back on — a trace the
// local corpus cannot produce (missing blob, or no corpus at all) is an
// error, never a remote fetch.
func TestRequestForWithoutVictimResolvesLocally(t *testing.T) {
	spec := clusterapi.Spec{TraceDigest: "sha256:" + strings.Repeat("ab", 32)}

	srv, _ := testServer(t, Config{})
	if _, err := srv.requestFor("", spec, spanCtx{}); err == nil || strings.Contains(err.Error(), "fetch from") {
		t.Fatalf("missing blob: err = %v, want a local not-found error", err)
	}

	bare, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, err := bare.requestFor("", spec, spanCtx{}); err == nil || !strings.Contains(err.Error(), "corpus is disabled") {
		t.Fatalf("no corpus: err = %v, want a corpus-disabled error", err)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSpecRoundTrip pins the admitted spec against the request builder:
// for every golden job, and a digest job, the request the victim's
// worker builds from the spec POST /analyze admitted (requestOf) has the
// cache key of the request a thief builds from the claimed spec
// (requestFor), which is the determinism contract's foundation.
func TestSpecRoundTrip(t *testing.T) {
	srv, ts := saturatedVictim(t, Config{})
	meta, _, err := srv.corpus.Put(recordedPayload(t, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	bodies := []string{digestSpec(meta.Digest)}
	for _, g := range goldenSpecs {
		bodies = append(bodies, g.spec)
	}
	for _, body := range bodies {
		id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", body))["id"]
		var spec clusterapi.Spec
		if !srv.node.With(id, func(j *jobs.Job) { spec = j.Spec }) {
			t.Fatalf("%s: job %q not admitted", body, id)
		}
		if !spec.Stealable() {
			t.Fatalf("%s: admitted spec %+v not stealable", body, spec)
		}
		victimReq := srv.requestOf(spec, "")
		thiefReq, err := srv.requestFor("http://victim", spec, spanCtx{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := thiefReq.CacheKey(), victimReq.CacheKey(); got != want || got == "" {
			t.Fatalf("%s: thief cache key %q != victim %q", body, got, want)
		}
	}
}

// TestStolenSpecThreadsOutOfRange: a workload spec a peer hands over with
// more threads than POST /analyze admits fails the job with an error
// naming the bound, and nothing is recorded for it; boot recovery refuses
// the same spec.
func TestStolenSpecThreadsOutOfRange(t *testing.T) {
	spec := clusterapi.Spec{App: "pbzip2", Threads: trace.MaxThreads + 1}
	requireSpecRefused(t, spec, fmt.Sprintf("threads %d outside [0, %d]", trace.MaxThreads+1, trace.MaxThreads))
}

// TestStolenSpecInputOutOfRange: a workload spec whose input is none of
// the classes POST /analyze admits (0 is what a spec without one
// decodes to) fails the job on the thief, and boot recovery fails it
// as lost; neither records anything.
func TestStolenSpecInputOutOfRange(t *testing.T) {
	for _, input := range []int{0, 7} {
		spec := clusterapi.Spec{App: "pbzip2", Threads: 2, Input: input, Scale: 0.2, Seed: 3}
		want := fmt.Sprintf("input %d is not an input class", input)
		requireSpecRefused(t, spec, want)
		requireRecoveredLost(t, spec, want)
	}
}

// TestStolenSpecScaleOutOfRange: a workload spec whose scale POST
// /analyze would refuse fails the job on the thief, and boot recovery
// fails it as lost, with the same message; neither records anything.
func TestStolenSpecScaleOutOfRange(t *testing.T) {
	for _, scale := range []float64{-1, 1000} {
		spec := clusterapi.Spec{App: "pbzip2", Threads: 2, Input: int(workload.SimLarge), Scale: scale, Seed: 3}
		want := fmt.Sprintf("scale %g outside [0, %d]", scale, maxScale)
		requireSpecRefused(t, spec, want)
		requireRecoveredLost(t, spec, want)
	}
}

// requireSpecRefused hands spec to a thief as a claimed job and to boot
// recovery's check: the thief must settle the job as failed with an
// error naming want, recovery must refuse it likewise, and nothing may
// be recorded.
func requireSpecRefused(t *testing.T, spec clusterapi.Spec, want string) {
	t.Helper()
	settled := make(chan clusterapi.StealResult, 1)
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/jobs/job-1/result" {
			http.NotFound(w, r) // the thief's steal probes find nothing here
			return
		}
		var res clusterapi.StealResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			t.Errorf("settle body: %v", err)
		}
		settled <- res
	}))
	defer victim.Close()

	srv, ts := thiefServer(t, victim.URL)
	if err := srv.executeStolen(victim.URL, clusterapi.StolenJob{ID: "job-1", Spec: spec}); err != nil {
		t.Fatalf("executeStolen: %v, want the failure settled", err)
	}
	if res := <-settled; !strings.Contains(res.Error, want) {
		t.Fatalf("settled error %q, want it to name %q", res.Error, want)
	}
	if _, err := srv.requestFor("", spec, spanCtx{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("recovery: err = %v, want it to name %q", err, want)
	}
	requireNothingRecorded(t, ts.URL)
}

// requireNothingRecorded fails if the daemon at base ran a record stage.
func requireNothingRecorded(t *testing.T, base string) {
	t.Helper()
	for series, n := range scrape(t, base) {
		if strings.HasPrefix(series, "perfplay_pipeline_stage_duration_seconds") && strings.Contains(series, `stage="record"`) && n != 0 {
			t.Fatalf("%s = %v: a refused spec was recorded", series, n)
		}
	}
}
