package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/jobs"
	"perfplay/internal/promtext"
	"perfplay/internal/telemetry"
)

// jobTrace is the GET /jobs/{id}/trace response shape.
type jobTrace struct {
	Job     string           `json:"job"`
	TraceID string           `json:"trace_id"`
	Nodes   []string         `json:"nodes"`
	Spans   []telemetry.Span `json:"spans"`
	Dropped int              `json:"dropped_spans"`
}

func (jt jobTrace) byName(name string) []telemetry.Span {
	var out []telemetry.Span
	for _, sp := range jt.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func getTrace(t *testing.T, base, id string) jobTrace {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace: status %d", id, resp.StatusCode)
	}
	return decode[jobTrace](t, resp)
}

// TestMetricsEndpoint scrapes a live daemon after one real job and runs
// the output through the package's own strict exposition-format parser
// and naming lint — the same checks CI applies — then pins the presence
// of every metric family the observability contract promises.
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := testServer(t, Config{})

	resp := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	if j := waitDone(t, ts.URL, sub["id"]); j["status"] != statusDone {
		t.Fatalf("job failed: %v", j["error"])
	}

	scrape, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer scrape.Body.Close()
	if ct := scrape.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	families, err := promtext.Parse(scrape.Body)
	if err != nil {
		t.Fatalf("scrape violates the text exposition format: %v", err)
	}
	if problems := promtext.Lint(families, "perfplay_"); len(problems) > 0 {
		t.Fatalf("metric naming lint: %v", problems)
	}

	byName := make(map[string]promtext.Family, len(families))
	for _, f := range families {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"perfplay_pipeline_stage_duration_seconds",
		"perfplay_pipeline_cache_requests_total",
		"perfplay_scheduler_steal_probes_total",
		"perfplay_scheduler_leases_granted_total",
		"perfplay_scheduler_queue_depth",
		"perfplay_cluster_cache_probes_total",
		"perfplay_cluster_cache_hits_total",
		"perfplay_corpus_blob_bytes",
		"perfplay_corpus_evictions_total",
		"perfplay_http_request_duration_seconds",
		"perfplay_http_requests_total",
		"perfplay_jobs_completed_total",
		"perfplay_jobs_running",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("scrape is missing family %s", want)
		}
	}

	// The job that just ran must be visible: at least one stage
	// histogram sample and the per-route counters for the requests this
	// test itself made.
	if f := byName["perfplay_pipeline_stage_duration_seconds"]; len(f.Series) == 0 {
		t.Error("stage duration histogram has no series after a completed job")
	}
	var sawAnalyze, sawCompleted bool
	for _, line := range byName["perfplay_http_requests_total"].Series {
		if strings.Contains(line, `route="POST /analyze"`) && strings.Contains(line, `code="202"`) {
			sawAnalyze = true
		}
	}
	for _, line := range byName["perfplay_jobs_completed_total"].Series {
		if strings.Contains(line, `status="done"`) {
			sawCompleted = true
		}
	}
	if !sawAnalyze {
		t.Error("perfplay_http_requests_total missing the POST /analyze 202 series")
	}
	if !sawCompleted {
		t.Error(`perfplay_jobs_completed_total has no status="done" series after one job`)
	}
	if got := srv.jobsDone.With(statusDone).Int(); got != 1 {
		t.Errorf("jobs completed counter = %d, want 1", got)
	}
}

// TestNodeStateOnMetrics: the node's occupancy — queue length and
// capacity, running jobs, outstanding leases, the corpus and the
// journal — reads off its /metrics families, the one place each
// number is published.
func TestNodeStateOnMetrics(t *testing.T) {
	dir := t.TempDir()
	srv, ts := saturatedVictim(t, Config{
		Policy:     jobs.Policy{QueueDepth: 5},
		CorpusDir:  filepath.Join(dir, "corpus"),
		JournalDir: filepath.Join(dir, "journal"),
	})
	payload := recordedPayload(t, 3)
	if _, _, err := srv.corpus.Put(payload, false); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if resp := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
	}
	if claim := postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://thief:1"}`); claim.StatusCode != http.StatusOK {
		t.Fatalf("claim: status %d", claim.StatusCode)
	}
	m := scrape(t, ts.URL)
	for series, want := range map[string]float64{
		"perfplay_scheduler_queue_depth":                2,
		"perfplay_scheduler_queue_capacity":             5,
		"perfplay_scheduler_leases_outstanding":         1,
		"perfplay_jobs_running":                         0,
		"perfplay_corpus_traces":                        1,
		"perfplay_corpus_blob_bytes":                    float64(len(payload)),
		"perfplay_journal_live_jobs":                    3,
		"perfplay_journal_dead_ratio":                   0,
		`perfplay_journal_records_total{op="admitted"}`: 3,
	} {
		if got, ok := m[series]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", series, got, ok, want)
		}
	}
	// The claim journals nothing: a lease never survives a restart.
	for series := range m {
		if strings.HasPrefix(series, "perfplay_journal_records_total{") && series != `perfplay_journal_records_total{op="admitted"}` {
			t.Errorf("%s = %v, want no record but the admits", series, m[series])
		}
	}
}

// catalogRow matches a metric row of docs/OBSERVABILITY.md's catalog:
// | `perfplay_…` | type | labels | meaning |
var catalogRow = regexp.MustCompile("^\\| `(perfplay_[a-z0-9_]+)` \\| ([a-z]+) \\|")

// TestMetricCatalogMatchesDocs: every family a node with a corpus and a
// journal registers has a row in docs/OBSERVABILITY.md under its type,
// and every row names a registered family.
func TestMetricCatalogMatchesDocs(t *testing.T) {
	dir := t.TempDir()
	srv, _ := saturatedVictim(t, Config{CorpusDir: filepath.Join(dir, "corpus"), JournalDir: filepath.Join(dir, "journal")})
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if row := catalogRow.FindStringSubmatch(line); row != nil {
			documented[row[1]] = row[2]
		}
	}
	registered := map[string]bool{}
	for _, name := range srv.metrics.FamilyNames() {
		registered[name] = true
		kind, _ := srv.metrics.FamilyKind(name)
		if typ, ok := documented[name]; !ok {
			t.Errorf("%s (%s) is registered but has no row in docs/OBSERVABILITY.md", name, kind)
		} else if typ != string(kind) {
			t.Errorf("%s is a %s, docs/OBSERVABILITY.md says %s", name, kind, typ)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which no node registers", name)
		}
	}
}

// TestJobTraceLocalJob pins the single-node span tree: a root job span
// whose children (queue_wait, execute) parent onto it, and per-stage
// spans under the execution.
func TestJobTraceLocalJob(t *testing.T) {
	_, ts := testServer(t, Config{NodeName: "solo-node"})

	resp := postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(telemetry.TraceHeader); !telemetry.ValidTraceID(got) {
		t.Fatalf("202 did not echo a valid trace ID (got %q)", got)
	}
	sub := decode[map[string]string](t, resp)
	if sub["trace_id"] == "" {
		t.Fatal("202 body has no trace_id")
	}
	if j := waitDone(t, ts.URL, sub["id"]); j["status"] != statusDone {
		t.Fatalf("job failed: %v", j["error"])
	}

	jt := getTrace(t, ts.URL, sub["id"])
	if jt.TraceID != sub["trace_id"] {
		t.Fatalf("trace endpoint reports trace %s, submit reported %s", jt.TraceID, sub["trace_id"])
	}
	roots := jt.byName("job")
	if len(roots) != 1 {
		t.Fatalf("want exactly one root job span, got %d", len(roots))
	}
	root := roots[0]
	if root.Parent != "" || root.Node != "solo-node" {
		t.Fatalf("root span = %+v", root)
	}
	for _, name := range []string{"queue_wait", "execute"} {
		spans := jt.byName(name)
		if len(spans) != 1 {
			t.Fatalf("want one %s span, got %d", name, len(spans))
		}
		if spans[0].Parent != root.ID {
			t.Fatalf("%s span parents onto %q, want root %q", name, spans[0].Parent, root.ID)
		}
	}
	exec := jt.byName("execute")[0]
	stages := 0
	for _, sp := range jt.Spans {
		if strings.HasPrefix(sp.Name, "stage:") {
			stages++
			if sp.Parent != exec.ID {
				t.Fatalf("stage span %s parents onto %q, want execute %q", sp.Name, sp.Parent, exec.ID)
			}
		}
	}
	if stages == 0 {
		t.Fatal("no stage:* spans recorded for a computed job")
	}
}

// TestJobTraceClientSuppliedID: a valid X-Perfplay-Trace header is
// adopted verbatim; garbage is replaced with a minted ID.
func TestJobTraceClientSuppliedID(t *testing.T) {
	_, ts := testServer(t, Config{})

	want := "deadbeefdeadbeefdeadbeefdeadbeef"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/analyze", strings.NewReader(goldenSpecs[0].spec))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, want)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get(telemetry.TraceHeader) != want {
		t.Fatalf("valid client trace ID not adopted: got %q", resp.Header.Get(telemetry.TraceHeader))
	}
	sub := decode[map[string]string](t, resp)
	if sub["trace_id"] != want {
		t.Fatalf("trace_id = %q, want %q", sub["trace_id"], want)
	}

	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/analyze", strings.NewReader(goldenSpecs[0].spec))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(telemetry.TraceHeader, "NOT HEX!")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	sub2 := decode[map[string]string](t, resp2)
	if sub2["trace_id"] == "NOT HEX!" || !telemetry.ValidTraceID(sub2["trace_id"]) {
		t.Fatalf("garbage trace header not replaced: %q", sub2["trace_id"])
	}
}

// stolenJobTrace submits one digest job to a saturated victim, lets an
// idle thief with an empty corpus steal it (fetching the blob and
// probing the victim's result and table caches on the way), and returns
// the job's timeline as the victim serves it.
func stolenJobTrace(t *testing.T) jobTrace {
	t.Helper()
	victimSrv, victim := saturatedVictim(t, Config{NodeName: "victim-node"})
	meta, _, err := victimSrv.corpus.Put(recordedPayload(t, 3), false)
	if err != nil {
		t.Fatal(err)
	}
	thiefSrv, thiefTS := testServer(t, Config{
		NodeName: "thief-node",
		Peers:    []string{victim.URL},
		Policy:   jobs.Policy{StealInterval: 5 * time.Millisecond},
	})
	thiefSrv.StartStealer(thiefTS.URL)

	resp := postJSON(t, victim.URL+"/analyze", `{"trace":"`+meta.Digest+`"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	j := waitDone(t, victim.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("stolen job failed: %v", j["error"])
	}
	if j["stolen_by"] != thiefTS.URL {
		t.Fatalf("job was not stolen (stolen_by=%v)", j["stolen_by"])
	}
	return getTrace(t, victim.URL, sub["id"])
}

// TestJobTraceSpansTwoNodes is the acceptance test for distributed
// tracing: one job submitted to a saturated victim is stolen by an idle
// thief (which also probes the victim's cluster cache on the way), and
// the victim's single GET /jobs/{id}/trace afterwards shows a span tree
// covering BOTH nodes — claim and settle on the victim, execution and
// cache probe on the thief, all stitched by parent IDs.
func TestJobTraceSpansTwoNodes(t *testing.T) {
	jt := stolenJobTrace(t)
	nodes := strings.Join(jt.Nodes, ",")
	if !strings.Contains(nodes, "victim-node") || !strings.Contains(nodes, "thief-node") {
		t.Fatalf("trace nodes = %v, want both victim-node and thief-node", jt.Nodes)
	}

	roots := jt.byName("job")
	if len(roots) != 1 || roots[0].Node != "victim-node" {
		t.Fatalf("root job span = %+v", roots)
	}
	claims := jt.byName("steal_claim")
	if len(claims) != 1 || claims[0].Node != "victim-node" || claims[0].Parent != roots[0].ID {
		t.Fatalf("steal_claim span = %+v (root %s)", claims, roots[0].ID)
	}
	execs := jt.byName("steal_execute")
	if len(execs) != 1 || execs[0].Node != "thief-node" || execs[0].Parent != claims[0].ID {
		t.Fatalf("steal_execute span = %+v (claim %s)", execs, claims[0].ID)
	}
	// The thief's cache probe against the victim is on the timeline too.
	probes := jt.byName("cache_probe")
	if len(probes) == 0 || probes[0].Node != "thief-node" || probes[0].Parent != execs[0].ID {
		t.Fatalf("cache_probe spans = %+v (exec %s)", probes, execs[0].ID)
	}
	if len(jt.byName("steal_settle")) != 1 {
		t.Fatalf("want one steal_settle span")
	}
}

// TestSpanNamesMatchDocs: the spans a local job, a stolen job and a
// lapsed lease record are exactly the rows of docs/OBSERVABILITY.md's
// span vocabulary, with every stage:<stage> span matching the
// `stage:<name>` row.
func TestSpanNamesMatchDocs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, vocab, ok := strings.Cut(string(doc), "### Span vocabulary\n")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no span vocabulary section")
	}
	// A row's first cell names one span or several
	// (`cache_probe` / `table_probe`); the section ends at the next rule.
	documented := map[string]bool{}
	for _, line := range strings.Split(vocab, "\n") {
		if line == "---" {
			break
		}
		cell, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		cell, _, _ = strings.Cut(cell, " |")
		for _, name := range strings.Split(cell, " / ") {
			documented[strings.Trim(name, "`")] = true
		}
	}

	recorded := map[string]bool{}
	see := func(jt jobTrace) {
		for _, sp := range jt.Spans {
			name := sp.Name
			if strings.HasPrefix(name, "stage:") {
				name = "stage:<name>"
			}
			recorded[name] = true
		}
	}
	// A local job.
	_, local := testServer(t, Config{})
	see(getTrace(t, local.URL, runJob(t, local.URL, goldenSpecs[0].spec)["id"].(string)))
	// A stolen job.
	see(stolenJobTrace(t))
	// A lease that lapses: its thief never reports.
	srv, ts := saturatedVictim(t, Config{Policy: jobs.Policy{Lease: time.Millisecond}})
	id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec))["id"]
	if claim := postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://doomed:1"}`); claim.StatusCode != http.StatusOK {
		t.Fatalf("claim: status %d", claim.StatusCode)
	}
	time.Sleep(10 * time.Millisecond)
	if n := srv.node.Reap(); n != 1 {
		t.Fatalf("Reap took back %d leases, want 1", n)
	}
	see(getTrace(t, ts.URL, id))

	for name := range recorded {
		if !documented[name] {
			t.Errorf("span %s is recorded but has no row in docs/OBSERVABILITY.md", name)
		}
	}
	for name := range documented {
		if !recorded[name] {
			t.Errorf("docs/OBSERVABILITY.md documents span %s, which no scenario recorded", name)
		}
	}
}

// TestJobTraceCapsSettledSpans: a settle carrying more thief spans than
// a timeline holds keeps maxJobSpans of them in all, counts the rest in
// dropped_spans, and the timeline reads sorted by start.
func TestJobTraceCapsSettledSpans(t *testing.T) {
	_, ts := saturatedVictim(t, Config{})
	id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec))["id"]
	claim := postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://thief:1"}`)
	if claim.StatusCode != http.StatusOK {
		t.Fatalf("claim: status %d", claim.StatusCode)
	}
	claimSpan := decode[clusterapi.StolenJob](t, claim).Span

	const shipped = maxJobSpans + 44
	base := time.Now()
	spans := make([]telemetry.Span, shipped)
	for i := range spans {
		// Starts out of order, so the read has to sort them.
		spans[i] = telemetry.Span{ID: fmt.Sprintf("s%d", i), Parent: claimSpan, Node: "thief-node",
			Name: "cache_probe", Start: base.Add(time.Duration(i*7919%shipped) * time.Millisecond)}
	}
	res := clusterapi.StealResult{Thief: "http://thief:1", Summary: json.RawMessage(`{"report":"r"}`)}
	var err error
	if res.Spans, err = json.Marshal(spans); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, ts.URL+"/jobs/"+id+"/result", string(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("settle: status %d", resp.StatusCode)
	}

	jt := getTrace(t, ts.URL, id)
	// steal_claim, the root job span, the thief's spans, steal_settle.
	if recorded := 1 + 1 + shipped + 1; len(jt.Spans) != maxJobSpans || jt.Dropped != recorded-maxJobSpans {
		t.Fatalf("timeline holds %d spans, %d dropped; want %d, %d", len(jt.Spans), jt.Dropped, maxJobSpans, recorded-maxJobSpans)
	}
	for i := 1; i < len(jt.Spans); i++ {
		if jt.Spans[i].Start.Before(jt.Spans[i-1].Start) {
			t.Fatalf("span %d starts %v, before span %d at %v", i, jt.Spans[i].Start, i-1, jt.Spans[i-1].Start)
		}
	}
}

// TestJobTraceReadWhileRecorded: timelines are read while workers,
// hooks and handlers record into them. Run under -race, it holds every
// access to a job's spans to the node's lock.
func TestJobTraceReadWhileRecorded(t *testing.T) {
	_, ts := testServer(t, Config{Policy: jobs.Policy{Workers: 2}})
	var wg sync.WaitGroup
	for seed := range 4 {
		spec := fmt.Sprintf(`{"app":"pbzip2","threads":2,"scale":0.2,"seed":%d}`, seed+1)
		id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", spec))["id"]
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
				if err != nil {
					t.Error(err)
					return
				}
				var jt jobTrace
				err = json.NewDecoder(resp.Body).Decode(&jt)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if len(jt.byName("job")) == 1 {
					return // the root span closes the timeline
				}
			}
			t.Errorf("%s: no root job span within 30s", id)
		}()
	}
	wg.Wait()
}

// TestJobTraceUnknownJob: the trace endpoint 404s for unknown jobs.
func TestJobTraceUnknownJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/jobs/job-999/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}
