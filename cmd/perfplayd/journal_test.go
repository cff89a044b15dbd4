package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/corpus"
	"perfplay/internal/journal"
	"perfplay/internal/telemetry"
)

// TestJournalKillAndRestartRecovers is the durability acceptance test:
// a node stopped with a non-empty queue AND a job out on a steal lease
// recovers every job on restart, in admit order — same IDs, reports
// byte-identical to what a single-node serial run produces (the
// determinism invariant is what makes "re-run the backlog" a correct
// recovery strategy).
func TestJournalKillAndRestartRecovers(t *testing.T) {
	base := t.TempDir()
	corpusDir := filepath.Join(base, "corpus")
	journalDir := filepath.Join(base, "journal")
	p3, p5 := recordedPayload(t, 3), recordedPayload(t, 5)

	// Reference: a plain single-node server (no journal) computes the
	// reports the recovered jobs must reproduce byte-for-byte. Its
	// healthz also pins the journal-disabled shape of the section.
	refSrv, ref := testServer(t, Config{})
	m3, _, err := refSrv.corpus.Put(p3, false)
	if err != nil {
		t.Fatal(err)
	}
	m5, _, err := refSrv.corpus.Put(p5, false)
	if err != nil {
		t.Fatal(err)
	}
	want3 := runJobReport(t, ref.URL, digestSpec(m3.Digest))
	want5 := runJobReport(t, ref.URL, digestSpec(m5.Digest))
	refHealth := decode[map[string]any](t, mustGet(t, ref.URL+"/healthz"))
	if jnl, _ := refHealth["journal"].(map[string]any); jnl["enabled"] != false {
		t.Fatalf("journal section without a journal = %v, want enabled:false", refHealth["journal"])
	}

	// Node A: journal enabled, workers never started — every submitted
	// job stays in the backlog, exactly the state a crash would strand.
	aSrv, err := NewServer(Config{CorpusDir: corpusDir, JournalDir: journalDir})
	if err != nil {
		t.Fatal(err)
	}
	aTS := httptest.NewServer(aSrv.Handler())
	if _, _, err := aSrv.corpus.Put(p3, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := aSrv.corpus.Put(p5, false); err != nil {
		t.Fatal(err)
	}
	submit := func(spec string) string {
		t.Helper()
		resp := postJSON(t, aTS.URL+"/analyze", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		return decode[map[string]string](t, resp)["id"]
	}
	id1 := submit(digestSpec(m3.Digest))
	id2 := submit(goldenSpecs[0].spec) // pbzip2 app spec, pinned by the committed golden
	id3 := submit(digestSpec(m5.Digest))

	// A thief claims the newest stealable job (id3) — and then vanishes.
	resp := postJSON(t, aTS.URL+"/jobs/claim", `{"thief":"http://ghost:1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim: status %d", resp.StatusCode)
	}
	if claimed := decode[map[string]any](t, resp); claimed["id"] != id3 {
		t.Fatalf("claimed %v, want %s", claimed["id"], id3)
	}

	// Kill node A mid-backlog: two jobs queued, one out on a lease.
	aTS.Close()
	aSrv.Close()

	// Node B boots over the same corpus and journal. testServer Starts
	// it, so recovery must already have re-enqueued everything before a
	// worker pops.
	bSrv, b := testServer(t, Config{CorpusDir: corpusDir, JournalDir: journalDir})
	health := decode[map[string]any](t, mustGet(t, b.URL+"/healthz"))
	if jnl, _ := health["journal"].(map[string]any); jnl["enabled"] != true {
		t.Fatalf("journal = %v, want enabled:true", health["journal"])
	}
	wantRecovered(t, b.URL, 3, 0)

	// Every job finishes under its ORIGINAL ID, byte-identical to the
	// serial reference (digest jobs) and the committed golden (app job).
	for _, tc := range []struct{ id, want, label string }{
		{id1, want3, "digest seed 3"},
		{id2, goldenReport(t, "pbzip2"), "pbzip2 golden"},
		{id3, want5, "digest seed 5 (was on lease)"},
	} {
		j := waitDone(t, b.URL, tc.id)
		if j["status"] != statusDone {
			t.Fatalf("%s (%s) failed after recovery: %v", tc.id, tc.label, j["error"])
		}
		if report, _ := j["report"].(string); report != tc.want {
			t.Errorf("%s (%s): recovered report differs from reference\ngot:\n%s\nwant:\n%s",
				tc.id, tc.label, report, tc.want)
		}
		if sb, ok := j["stolen_by"]; ok && sb != "" {
			t.Errorf("%s still attributed to the dead thief: %v", tc.id, sb)
		}
	}

	// A fresh submit must not collide with a resurrected ID.
	resp = postJSON(t, b.URL+"/analyze", goldenSpecs[0].warmup)
	newID := decode[map[string]string](t, resp)["id"]
	if newID == id1 || newID == id2 || newID == id3 {
		t.Fatalf("new job reused recovered ID %s", newID)
	}
	waitDone(t, b.URL, newID)

	// The journal surfaced its metrics on node B's registry.
	metrics := readBody(t, mustGet(t, b.URL+"/metrics"))
	for _, name := range []string{
		"perfplay_journal_records_total",
		"perfplay_journal_recovered_jobs_total",
		"perfplay_journal_live_jobs",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
	_ = bSrv
}

// TestJournalRestartFailsUploadOnlyJob: an admitted job whose input the
// restarted node cannot rebuild, a digest job whose blob the corpus no
// longer holds or a spec naming no input at all, is unrecoverable; it
// must surface as failed with a clear error, never vanish.
func TestJournalRestartFailsUploadOnlyJob(t *testing.T) {
	missing := clusterapi.Spec{TraceDigest: "sha256:" + strings.Repeat("ab", 32)}
	for name, spec := range map[string]clusterapi.Spec{"missing blob": missing, "empty spec": {}} {
		base := t.TempDir()
		cfg := Config{CorpusDir: filepath.Join(base, "corpus"), JournalDir: filepath.Join(base, "journal")}

		const id = "job-1"
		jr, err := journal.Open(cfg.JournalDir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := jr.Append(journal.Record{Op: journal.OpAdmitted, Job: id, Spec: raw, Meta: map[string]string{
			jmetaTraceID:   telemetry.NewTraceID(),
			jmetaSubmitted: time.Now().UTC().Format(time.RFC3339Nano),
			"trace_digest": spec.TraceDigest, // an older daemon's record
		}}); err != nil {
			t.Fatal(err)
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}

		_, b := testServer(t, cfg)
		j := decode[map[string]any](t, mustGet(t, b.URL+"/jobs/"+id))
		if j["status"] != statusFailed {
			t.Fatalf("%s: job after restart = %v, want failed", name, j["status"])
		}
		// No steal happened, so the error must not blame one.
		if errMsg, _ := j["error"].(string); !strings.HasPrefix(errMsg, "job not recovered: ") || strings.Contains(errMsg, "stolen") {
			t.Fatalf("%s: error = %q, want a clear job-not-recovered explanation", name, errMsg)
		}
		wantRecovered(t, b.URL, 0, 1)
	}
}

// TestJournalRestartDoesNotReuseIDs: a node restarted over a journal
// numbers new jobs past every job the journal was given, settled ones
// included, and still does after a compaction dropped every retired
// record.
func TestJournalRestartDoesNotReuseIDs(t *testing.T) {
	base := t.TempDir()
	cfg := Config{CorpusDir: filepath.Join(base, "corpus"), JournalDir: filepath.Join(base, "journal")}
	run := func() string {
		t.Helper()
		srv, ts := testServer(t, cfg)
		defer srv.Close()
		defer ts.Close()
		id, _ := runJob(t, ts.URL, goldenSpecs[0].spec)["id"].(string)
		return id
	}
	if id := run(); id != "job-1" {
		t.Fatalf("first job = %q, want job-1", id)
	}
	if id := run(); id != "job-2" {
		t.Fatalf("first job after a restart = %q, want job-2", id)
	}
	jr, err := journal.Open(cfg.JournalDir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for jr.Stats().Compactions == 0 {
		if err := jr.Append(journal.Record{Op: journal.OpFailed, Job: "job-2"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := jr.Stats(); st.Records != 2 || st.LiveJobs != 0 {
		t.Fatalf("compacted journal: %+v, want job-2's two records only", st)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	if id := run(); id != "job-3" {
		t.Fatalf("first job after a compaction and a restart = %q, want job-3", id)
	}
}

// TestJournalSettledJobsStayRetired: a journal-enabled node that ran
// its backlog to completion restarts with nothing to recover — settled
// records must not resurrect jobs.
func TestJournalSettledJobsStayRetired(t *testing.T) {
	base := t.TempDir()
	cfg := Config{CorpusDir: filepath.Join(base, "corpus"), JournalDir: filepath.Join(base, "journal")}

	aSrv, a := testServer(t, cfg)
	report := runJobReport(t, a.URL, goldenSpecs[0].spec)
	if report != goldenReport(t, "pbzip2") {
		t.Fatal("reference run diverged from the golden")
	}
	// Stop node A now (its t.Cleanup would only run after the test).
	a.Close()
	aSrv.Close()

	_, b := testServer(t, Config{CorpusDir: cfg.CorpusDir, JournalDir: cfg.JournalDir})
	wantRecovered(t, b.URL, 0, 0)
	if n := scrape(t, b.URL)["perfplay_scheduler_queue_depth"]; n != 0 {
		t.Fatalf("perfplay_scheduler_queue_depth = %v after recovering a settled journal", n)
	}
}

// wantRecovered checks this boot's perfplay_journal_recovered_jobs_total
// by outcome.
func wantRecovered(t *testing.T, base string, requeued, lost float64) {
	t.Helper()
	m := scrape(t, base)
	for outcome, want := range map[string]float64{"requeued": requeued, "lost": lost} {
		if got := m[fmt.Sprintf("perfplay_journal_recovered_jobs_total{outcome=%q}", outcome)]; got != want {
			t.Errorf("recovered{outcome=%q} = %v, want %v", outcome, got, want)
		}
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestJournalAdmittedMetaIsTraceAndSubmitted: an admitted record carries
// the spec and only the trace_id and submitted meta; the job's seed and
// digest are the spec's.
func TestJournalAdmittedMetaIsTraceAndSubmitted(t *testing.T) {
	base := t.TempDir()
	cfg := Config{CorpusDir: filepath.Join(base, "corpus"), JournalDir: filepath.Join(base, "journal")}
	srv, ts := saturatedVictim(t, cfg)
	meta, _, err := srv.corpus.Put(recordedPayload(t, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{goldenSpecs[0].spec, digestSpec(meta.Digest)} {
		if resp := postJSON(t, ts.URL+"/analyze", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", body, resp.StatusCode)
		}
	}
	ts.Close()
	srv.Close()

	jr, err := journal.Open(cfg.JournalDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	live := jr.Live()
	if len(live) != 2 {
		t.Fatalf("%d live jobs, want 2", len(live))
	}
	for _, lj := range live {
		if len(lj.Meta) != 2 || lj.Meta[jmetaTraceID] == "" || lj.Meta[jmetaSubmitted] == "" {
			t.Errorf("%s: meta = %v, want trace_id and submitted only", lj.Job, lj.Meta)
		}
	}
}

// TestJournalRecoversLegacySpecMeta: an admitted record written with
// seed and trace_digest meta beside the spec recovers, and the job shows
// the spec's seed and digest, not the meta's.
func TestJournalRecoversLegacySpecMeta(t *testing.T) {
	base := t.TempDir()
	cfg := Config{CorpusDir: filepath.Join(base, "corpus"), JournalDir: filepath.Join(base, "journal")}
	payload := recordedPayload(t, 3)
	st, err := corpus.Open(cfg.CorpusDir, corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta, _, err := st.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	var app clusterapi.Spec
	if err := json.Unmarshal([]byte(`{"app":"pbzip2","threads":2,"input":3,"scale":0.2,"seed":3,"top":5,"schemes":true}`), &app); err != nil {
		t.Fatal(err)
	}
	specs := map[string]clusterapi.Spec{
		"job-1": app,
		"job-2": {TraceDigest: meta.Digest, Schemes: true},
	}
	jr, err := journal.Open(cfg.JournalDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		raw, err := json.Marshal(specs[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := jr.Append(journal.Record{Op: journal.OpAdmitted, Job: id, Spec: raw, Meta: map[string]string{
			jmetaTraceID:   telemetry.NewTraceID(),
			jmetaSubmitted: time.Now().UTC().Format(time.RFC3339Nano),
			"seed":         "99",
			"trace_digest": "sha256:" + strings.Repeat("cd", 32),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	_, b := testServer(t, cfg)
	wantRecovered(t, b.URL, 2, 0)
	for id, want := range map[string]struct {
		seed   float64
		digest any
		report string
	}{
		"job-1": {3, nil, goldenReport(t, "pbzip2")},
		"job-2": {0, meta.Digest, runJobReport(t, b.URL, digestSpec(meta.Digest))},
	} {
		j := waitDone(t, b.URL, id)
		if j["status"] != statusDone {
			t.Fatalf("%s failed after recovery: %v", id, j["error"])
		}
		seed, _ := j["seed"].(float64)
		if seed != want.seed || j["trace_digest"] != want.digest {
			t.Errorf("%s: seed %v, trace_digest %v; want the spec's %v and %v", id, j["seed"], j["trace_digest"], want.seed, want.digest)
		}
		if report, _ := j["report"].(string); report != want.report {
			t.Errorf("%s: recovered report differs from the reference", id)
		}
	}
}

// requireRecoveredLost journals spec as an admitted job and boots a
// daemon over that journal: recovery must fail the job as lost, with an
// error naming want, and record nothing.
func requireRecoveredLost(t *testing.T, spec clusterapi.Spec, want string) {
	t.Helper()
	cfg := Config{CorpusDir: t.TempDir(), JournalDir: t.TempDir()}
	jr, err := journal.Open(cfg.JournalDir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journal.Record{Op: journal.OpAdmitted, Job: "job-1", Spec: raw, Meta: map[string]string{
		jmetaTraceID:   telemetry.NewTraceID(),
		jmetaSubmitted: time.Now().UTC().Format(time.RFC3339Nano),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts := testServer(t, cfg)
	wantRecovered(t, ts.URL, 0, 1)
	j := waitDone(t, ts.URL, "job-1")
	if msg, _ := j["error"].(string); j["status"] == statusDone || !strings.Contains(msg, want) {
		t.Fatalf("recovered job: status %v, error %q; want it failed naming %q", j["status"], msg, want)
	}
	requireNothingRecorded(t, ts.URL)
}
