package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/corpus"
	"perfplay/internal/jobs"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CorpusDir == "" {
		cfg.CorpusDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// goldenSpecs are the committed pipeline goldens, expressed as daemon
// analyze specs. The cluster contract under test: however a job is
// served — locally, stolen, from a peer's cache, after a restart — its
// report is the bytes these goldens pin.
//
// warmup is the same analysis with different reporting flags: it misses
// the result cache for the golden spec but shares its verdict-table
// key, so the golden job that follows classifies against a cached
// table instead of the build pass's own report.
var goldenSpecs = []struct {
	name   string
	warmup string
	spec   string
}{
	{"pbzip2",
		`{"app":"pbzip2","threads":2,"scale":0.2,"seed":3,"top":5}`,
		`{"app":"pbzip2","threads":2,"scale":0.2,"seed":3,"top":5,"schemes":true}`},
	{"mysql",
		`{"app":"mysql","threads":4,"scale":0.2,"seed":7,"top":5}`,
		`{"app":"mysql","threads":4,"scale":0.2,"seed":7,"top":5,"races":true}`},
}

func goldenReport(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "pipeline", "testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// runJob submits a spec, waits for it and returns the finished job.
func runJob(t *testing.T, base, spec string) map[string]any {
	t.Helper()
	resp := postJSON(t, base+"/analyze", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	j := waitDone(t, base, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("job failed: %v", j["error"])
	}
	return j
}

// runJobReport submits a spec and returns the finished job's report.
func runJobReport(t *testing.T, base, spec string) string {
	t.Helper()
	report, _ := runJob(t, base, spec)["report"].(string)
	return report
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// apiError decodes an error-envelope response body and returns the
// typed error, so tests assert machine-readable codes instead of
// grepping message prose.
func apiError(t *testing.T, resp *http.Response) clusterapi.APIError {
	t.Helper()
	return decode[clusterapi.Envelope](t, resp).Err
}

// waitDone polls GET /jobs/{id} until the job leaves the queue.
func waitDone(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decode[map[string]any](t, resp)
		switch j["status"] {
		case statusDone, statusFailed:
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func TestAnalyzeWorkloadSpec(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp := postJSON(t, ts.URL+"/analyze",
		`{"app":"mysql","threads":4,"scale":0.2,"seed":7,"schemes":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	if sub["id"] == "" || sub["status"] != statusQueued {
		t.Fatalf("submit response: %v", sub)
	}

	j := waitDone(t, ts.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("job failed: %v", j["error"])
	}
	report, _ := j["report"].(string)
	if !strings.Contains(report, "PerfPlay analysis of mysql") {
		t.Fatalf("report = %q", report)
	}
	if j["app"] != "mysql" {
		t.Fatalf("app = %v", j["app"])
	}
	schemes, _ := j["schemes"].(map[string]any)
	if len(schemes) != 4 {
		t.Fatalf("schemes = %v", schemes)
	}

	// The identical spec resubmitted must be served from the LRU cache.
	resp = postJSON(t, ts.URL+"/analyze",
		`{"app":"mysql","threads":4,"scale":0.2,"seed":7,"schemes":true}`)
	sub = decode[map[string]string](t, resp)
	j2 := waitDone(t, ts.URL, sub["id"])
	if j2["cache_hit"] != true {
		t.Fatalf("resubmission missed the cache: %v", j2["cache_hit"])
	}
	if j2["report"] != report {
		t.Fatal("cached report differs")
	}
}

// storeTrace uploads a trace body through POST /traces and returns its
// digest.
func storeTrace(t *testing.T, base string, body []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/traces", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /traces: status %d", resp.StatusCode)
	}
	return decode[map[string]any](t, resp)["trace"].(map[string]any)["digest"].(string)
}

func TestAnalyzeTraceUpload(t *testing.T) {
	_, ts := testServer(t, Config{})

	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: 3}), sim.Config{Seed: 3})
	var buf bytes.Buffer
	if err := rec.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}

	digest := storeTrace(t, ts.URL, buf.Bytes())
	j := runJob(t, ts.URL, fmt.Sprintf(`{"trace":%q,"schemes":true}`, digest))
	report, _ := j["report"].(string)
	if !strings.Contains(report, "pbzip2") {
		t.Fatalf("report = %q", report)
	}
	// The scheme section's baseline must be the recording's own wall
	// time from the trace header, not an ELSC re-replay total.
	wantrecorded := fmt.Sprintf("scheme replays (recorded %v)", rec.Trace.TotalTime)
	if !strings.Contains(report, wantrecorded) {
		t.Fatalf("report lacks %q:\n%s", wantrecorded, report)
	}
}

// TestAnalyzeJSONTraceUpload: a JSON-encoded trace stored through POST
// /traces and analyzed by digest reports the trace's own critical
// sections; the same bytes posted to /analyze are not a job spec and get
// a 400 that points to /traces, never a re-recorded run.
func TestAnalyzeJSONTraceUpload(t *testing.T) {
	_, ts := testServer(t, Config{})

	// Small enough to fit under maxSpecBytes, so the refusal below is
	// the spec check, not the body cap.
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.01, Seed: 3}), sim.Config{Seed: 3})
	var buf bytes.Buffer
	if err := rec.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > maxSpecBytes {
		t.Fatalf("JSON trace is %d bytes, over the %d-byte spec cap", buf.Len(), maxSpecBytes)
	}

	t.Run("stored and analyzed by digest", func(t *testing.T) {
		j := runJob(t, ts.URL, digestSpec(storeTrace(t, ts.URL, buf.Bytes())))
		// An analyzed trace reports its own critical sections; a
		// misrouted spec job would have re-recorded a fresh run.
		if got := j["critical_sections"].(float64); int(got) != len(rec.Trace.ExtractCS()) {
			t.Fatalf("critical_sections = %v, want %d (trace was re-recorded, not analyzed?)",
				got, len(rec.Trace.ExtractCS()))
		}
	})
	t.Run("posted to analyze", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/analyze", buf.String())
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if e := apiError(t, resp); e.Code != clusterapi.CodeBadRequest || !strings.Contains(e.Message, "POST /traces") {
			t.Fatalf("error = %+v, want code %q naming POST /traces", e, clusterapi.CodeBadRequest)
		}
	})
}

// TestAnalyzeSpecWrongContentType: POST /analyze ignores Content-Type,
// so a spec sent as curl -d's default form encoding runs like any other.
func TestAnalyzeSpecWrongContentType(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/analyze", "application/x-www-form-urlencoded",
		strings.NewReader(`{"app":"mysql","scale":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if j := waitDone(t, ts.URL, decode[map[string]string](t, resp)["id"]); j["status"] != statusDone {
		t.Fatalf("job ended %v (%v), want done", j["status"], j["error"])
	}
}

// TestJobListing: GET /jobs pages retained jobs newest-first, filters
// by ?state=, bounds pages by ?limit= (with total reporting the
// pre-truncation match count), and rejects unknown states with a typed
// bad_request.
func TestJobListing(t *testing.T) {
	_, ts := testServer(t, Config{})

	var ids []string
	for _, seed := range []string{"1", "2", "3"} {
		resp := postJSON(t, ts.URL+"/analyze", `{"app":"mysql","scale":0.2,"seed":`+seed+`}`)
		sub := decode[map[string]string](t, resp)
		ids = append(ids, sub["id"])
		waitDone(t, ts.URL, sub["id"])
	}

	type jobPage struct {
		Jobs []struct {
			ID     string `json:"id"`
			Status string `json:"status"`
		} `json:"jobs"`
		Total int `json:"total"`
	}

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	page := decode[jobPage](t, resp)
	if page.Total != 3 || len(page.Jobs) != 3 {
		t.Fatalf("listing = %+v, want all 3 jobs", page)
	}
	for i, j := range page.Jobs { // newest submission first
		if want := ids[len(ids)-1-i]; j.ID != want {
			t.Fatalf("jobs[%d] = %s, want %s (newest-first)", i, j.ID, want)
		}
	}

	resp, err = http.Get(ts.URL + "/jobs?state=done&limit=2")
	if err != nil {
		t.Fatal(err)
	}
	page = decode[jobPage](t, resp)
	if page.Total != 3 || len(page.Jobs) != 2 {
		t.Fatalf("limited listing: total %d jobs %d, want total 3 over 2 jobs", page.Total, len(page.Jobs))
	}

	resp, err = http.Get(ts.URL + "/jobs?state=queued")
	if err != nil {
		t.Fatal(err)
	}
	if page = decode[jobPage](t, resp); page.Total != 0 {
		t.Fatalf("queued listing after completion: %+v", page)
	}

	resp, err = http.Get(ts.URL + "/jobs?state=exploded")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad state: status %d, want 400", resp.StatusCode)
	}
	if e := apiError(t, resp); e.Code != clusterapi.CodeBadRequest {
		t.Fatalf("bad state error = %+v, want code %q", e, clusterapi.CodeBadRequest)
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	_, ts := testServer(t, Config{})

	for body, want := range map[string]int{
		`{"app":"no-such-app"}`:              http.StatusBadRequest,
		`{nope`:                              http.StatusBadRequest,
		`{"app":"mysql","input":"simwrong"}`: http.StatusBadRequest,
	} {
		resp := postJSON(t, ts.URL+"/analyze", body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("body %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// A body that is not JSON, a spec naming neither app nor trace, and
	// one with a field the spec lacks are bad requests pointing to POST
	// /traces.
	for _, body := range []string{"definitely not a trace", `{}`, `{"app":"mysql","schems":true}`} {
		resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest ||
			e.Code != clusterapi.CodeBadRequest || !strings.Contains(e.Message, "POST /traces") {
			t.Fatalf("body %q: status %d, error %+v: want a 400 %q naming POST /traces",
				body, resp.StatusCode, e, clusterapi.CodeBadRequest)
		}
	}
}

// A workload spec's thread count past either end of [0, MaxThreads] is
// refused before admission: no job is queued and nothing is recorded.
func TestAnalyzeRejectsThreadsOutOfRange(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, threads := range []int{-1, trace.MaxThreads + 1} {
		resp := postJSON(t, ts.URL+"/analyze", fmt.Sprintf(`{"app":"pbzip2","threads":%d}`, threads))
		if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest ||
			e.Code != clusterapi.CodeBadRequest || !strings.Contains(e.Message, "threads") {
			t.Fatalf("threads %d: status %d, error %+v: want a 400 %q naming threads",
				threads, resp.StatusCode, e, clusterapi.CodeBadRequest)
		}
	}
	requireNothingAdmitted(t, ts.URL)
}

// A workload spec's scale below 0 or above maxScale — far above, too,
// where the recording would run for minutes — is refused before
// admission: no job is queued and nothing is recorded.
func TestAnalyzeRejectsScaleOutOfRange(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, scale := range []string{"-1", "16.5", "1000", "1e300"} {
		resp := postJSON(t, ts.URL+"/analyze", fmt.Sprintf(`{"app":"pbzip2","threads":2,"scale":%s}`, scale))
		if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest ||
			e.Code != clusterapi.CodeBadRequest || !strings.Contains(e.Message, "scale") {
			t.Fatalf("scale %s: status %d, error %+v: want a 400 %q naming scale",
				scale, resp.StatusCode, e, clusterapi.CodeBadRequest)
		}
	}
	requireNothingAdmitted(t, ts.URL)
}

// TestCheckWorkloadSpecScale: 0 (the default) through maxScale pass, and
// anything else — negative, past the bound, not a number — is refused
// with the code POST /analyze answers.
func TestCheckWorkloadSpecScale(t *testing.T) {
	input := int(workload.SimLarge)
	for _, scale := range []float64{0, 0.05, 1, maxScale} {
		if code, err := checkWorkloadSpec("mysql", 2, input, scale); err != nil {
			t.Errorf("scale %g: %s %v, want it admitted", scale, code, err)
		}
	}
	for _, scale := range []float64{-0.5, math.Nextafter(maxScale, math.Inf(1)), 1000, math.Inf(1), math.NaN()} {
		code, err := checkWorkloadSpec("mysql", 2, input, scale)
		if err == nil || code != clusterapi.CodeBadRequest || !strings.Contains(err.Error(), fmt.Sprintf("outside [0, %d]", maxScale)) {
			t.Errorf("scale %g: %q %v, want %q naming the bound", scale, code, err, clusterapi.CodeBadRequest)
		}
	}
}

// requireNothingAdmitted fails if the daemon at base holds a job or ran
// a record stage.
func requireNothingAdmitted(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/job-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /jobs/job-1: status %d, want 404: a refused spec was admitted", resp.StatusCode)
	}
	requireNothingRecorded(t, base)
}

func TestJobNotFound(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestQueueBounded(t *testing.T) {
	// No Start(): nothing drains the depth-1 queue, so the second
	// submission must be rejected rather than buffered without bound.
	s, err := NewServer(Config{Policy: jobs.Policy{QueueDepth: 1}, CorpusDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := postJSON(t, ts.URL+"/analyze", `{"app":"mysql","scale":0.2}`)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", first.StatusCode)
	}
	second := postJSON(t, ts.URL+"/analyze", `{"app":"mysql","scale":0.2}`)
	defer second.Body.Close()
	if second.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second submit: status %d, want 503", second.StatusCode)
	}
	if e := apiError(t, second); e.Code != clusterapi.CodeQueueFull {
		t.Fatalf("error = %+v, want code %q", e, clusterapi.CodeQueueFull)
	}
}

// TestUploadBufferBounded: POST /traces bodies being buffered share one
// byte budget, so a full budget pushes back with 503 trace_backlog_full
// and admits the upload once the bytes are released.
func TestUploadBufferBounded(t *testing.T) {
	s, ts := testServer(t, Config{})
	payload := recordedPayload(t, 3)

	release := s.reserveInflight(maxInflightUploadBytes)
	if release == nil {
		t.Fatal("an empty budget refused a full reservation")
	}
	full, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if full.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload into a full budget: status %d, want 503", full.StatusCode)
	}
	if e := apiError(t, full); e.Code != clusterapi.CodeTraceBacklogFull {
		t.Fatalf("error = %+v, want code %q", e, clusterapi.CodeTraceBacklogFull)
	}
	release()
	freed, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	freed.Body.Close()
	if freed.StatusCode != http.StatusCreated {
		t.Fatalf("upload after release: status %d, want 201", freed.StatusCode)
	}
}

// TestTruncatedBodyIsBadRequest: a body that ends before its declared
// Content-Length is a malformed request (400), not an oversized one;
// only a body over the route's cap is 413.
func TestTruncatedBodyIsBadRequest(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/traces", "/analyze"} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: perfplayd\r\nContent-Length: 100\r\n\r\n0123456789", path)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		if e := apiError(t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != clusterapi.CodeBadRequest {
			t.Errorf("POST %s with a truncated body: status %d, error %+v, want 400 %q",
				path, resp.StatusCode, e, clusterapi.CodeBadRequest)
		}
		conn.Close()
	}
}

// TestHealthz pins /healthz to liveness and the node state /metrics has
// no family for. Each key has a reader: jobs (finish_test), cached
// (bench/measure.go), steal (steal_test), journal (journal_test). A key
// added without one fails here; a counter belongs on /metrics.
// steal.peer_queues appears once gossip has seen a peer (steal_test).
func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	h := decode[map[string]any](t, resp)
	if h["ok"] != true {
		t.Fatalf("healthz = %v", h)
	}
	keys := func(m any) []string {
		obj, _ := m.(map[string]any)
		return slices.Sorted(maps.Keys(obj))
	}
	for _, c := range []struct {
		section string
		got     []string
		want    []string
	}{
		{"/healthz", keys(h), []string{"cached", "cached_tables", "jobs", "journal", "ok", "steal"}},
		{"steal", keys(h["steal"]), []string{"enabled", "stealable"}},
		{"journal", keys(h["journal"]), []string{"enabled"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s keys = %v, want %v", c.section, c.got, c.want)
		}
	}
}

// TestPprofOptIn: -pprof mounts the profiler index, the default leaves it
// unmounted, and -print-routes (the documented API) never lists it.
func TestPprofOptIn(t *testing.T) {
	for _, tc := range []struct {
		enable bool
		want   int
	}{{true, http.StatusOK}, {false, http.StatusNotFound}} {
		_, ts := testServer(t, Config{EnablePprof: tc.enable})
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("EnablePprof=%t: GET /debug/pprof/ = %d, want %d", tc.enable, resp.StatusCode, tc.want)
		}
	}
	for _, p := range routePatterns() {
		if strings.Contains(p, "pprof") {
			t.Errorf("-print-routes lists %q", p)
		}
	}
}

// recordedPayload serializes a small deterministic recording.
func recordedPayload(t *testing.T, seed int64) []byte {
	t.Helper()
	app := workload.MustGet("pbzip2")
	rec := sim.Run(app.Build(workload.Config{Threads: 2, Scale: 0.2, Seed: seed}), sim.Config{Seed: seed})
	var buf bytes.Buffer
	if err := rec.Trace.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUploadImplausibleThreadCount: a recording whose header claims
// 2^32-1 threads is refused as invalid_trace before anything is sized by
// the claim, and the corpus stores nothing.
func TestUploadImplausibleThreadCount(t *testing.T) {
	s, ts := testServer(t, Config{})
	payload := recordedPayload(t, 3)
	tr, err := trace.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	// magic, version, the app name (length, bytes), then the thread count.
	off := 12 + len(tr.App)
	if n := binary.LittleEndian.Uint32(payload[off:]); int(n) != tr.NumThreads {
		t.Fatalf("thread count at offset %d reads %d, want %d", off, n, tr.NumThreads)
	}
	binary.LittleEndian.PutUint32(payload[off:], math.MaxUint32)
	wantInvalidTrace(t, s, ts.URL, payload)
}

// TestUploadUnrunnableRecording: a recording that decodes but that no
// analysis can run (here a write with op 7) is refused as invalid_trace
// and not stored. It used to be stored, and every job over its digest
// then failed with "unknown write op 7".
func TestUploadUnrunnableRecording(t *testing.T) {
	s, ts := testServer(t, Config{})
	tr, err := trace.Decode(recordedPayload(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(tr.Events, func(e trace.Event) bool { return e.Kind == trace.KWrite })
	if i < 0 {
		t.Fatal("the recording has no write")
	}
	tr.Events[i].Op = 7
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	wantInvalidTrace(t, s, ts.URL, buf.Bytes())
}

// wantInvalidTrace uploads payload and expects a 400 invalid_trace that
// leaves the corpus empty.
func wantInvalidTrace(t *testing.T, s *Server, base string, payload []byte) {
	t.Helper()
	resp, err := http.Post(base+"/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if e := apiError(t, resp); e.Code != clusterapi.CodeInvalidTrace {
		t.Fatalf("error %+v, want code %q", e, clusterapi.CodeInvalidTrace)
	}
	if n := s.corpus.Len(); n != 0 {
		t.Fatalf("corpus holds %d traces after the refused upload, want 0", n)
	}
}

// TestTraceCorpusLifecycle drives the full /traces surface: upload,
// idempotent re-upload (one blob, same digest), list, download
// byte-for-byte, delete, and post-delete 404s.
func TestTraceCorpusLifecycle(t *testing.T) {
	s, ts := testServer(t, Config{})
	payload := recordedPayload(t, 3)

	up, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if up.StatusCode != http.StatusCreated {
		t.Fatalf("first upload: status %d, want 201", up.StatusCode)
	}
	first := decode[map[string]any](t, up)
	meta, _ := first["trace"].(map[string]any)
	digest, _ := meta["digest"].(string)
	if first["created"] != true || digest != corpus.Digest(payload) {
		t.Fatalf("first upload response: %v", first)
	}

	// Uploading the same bytes again stores nothing new.
	up2, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if up2.StatusCode != http.StatusOK {
		t.Fatalf("re-upload: status %d, want 200", up2.StatusCode)
	}
	second := decode[map[string]any](t, up2)
	meta2, _ := second["trace"].(map[string]any)
	if second["created"] != false || meta2["digest"] != digest {
		t.Fatalf("re-upload response: %v", second)
	}
	if n := s.corpus.Len(); n != 1 {
		t.Fatalf("corpus holds %d blobs after duplicate upload, want 1", n)
	}

	list, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	listed := decode[map[string]any](t, list)
	if traces, _ := listed["traces"].([]any); len(traces) != 1 {
		t.Fatalf("GET /traces listed %v", listed)
	}

	dl, err := http.Get(ts.URL + "/traces/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(dl.Body)
	dl.Body.Close()
	if err != nil || dl.StatusCode != http.StatusOK {
		t.Fatalf("download: status %d err %v", dl.StatusCode, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("downloaded %d bytes differ from uploaded %d", len(got), len(payload))
	}

	del, err := httpDelete(ts.URL + "/traces/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", del.StatusCode)
	}
	for _, probe := range []string{"/traces/" + digest} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s after delete: status %d", probe, resp.StatusCode)
		}
	}
}

func httpDelete(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

func httpPatch(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPatch, url, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// TestOversizedDeclaredLengthRejectedEarly: a Content-Length beyond the
// per-trace cap can never be accepted, so both upload endpoints must
// answer 413 immediately instead of reserving shared budget (and 503ing
// other clients) while the doomed body streams in.
func TestOversizedDeclaredLengthRejectedEarly(t *testing.T) {
	_, ts := testServer(t, Config{})
	// POST /traces declares one byte over maxTraceBytes and sends no
	// body: only an answer before any read can arrive.
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /traces HTTP/1.1\r\nHost: perfplayd\r\nContent-Length: %d\r\n\r\n", maxTraceBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("POST /traces with oversized Content-Length and no body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /traces with oversized Content-Length: status %d, want 413", resp.StatusCode)
	}
	// POST /analyze reads a job spec under a 16 KiB cap.
	resp, err = http.Post(ts.URL+"/analyze", "application/octet-stream", bytes.NewReader(make([]byte, 64<<10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /analyze with oversized Content-Length: status %d, want 413", resp.StatusCode)
	}
}

// TestTracePinEndpoint flips eviction exemption over HTTP and checks
// the store observes it.
func TestTracePinEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{})
	payload := recordedPayload(t, 3)
	up, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	digest := decode[map[string]any](t, up)["trace"].(map[string]any)["digest"].(string)

	for _, want := range []bool{true, false} {
		resp, err := httpPatch(fmt.Sprintf("%s/traces/%s?pin=%t", ts.URL, digest, want))
		if err != nil {
			t.Fatal(err)
		}
		body := decode[map[string]any](t, resp)
		if resp.StatusCode != http.StatusOK || body["pinned"] != want {
			t.Fatalf("pin=%t: status %d body %v", want, resp.StatusCode, body)
		}
		meta, err := s.corpus.Stat(digest)
		if err != nil || meta.Pinned != want {
			t.Fatalf("store pinned=%v after pin=%t (err %v)", meta.Pinned, want, err)
		}
	}

	bad, err := httpPatch(ts.URL + "/traces/" + digest + "?pin=maybe")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("pin=maybe: status %d, want 400", bad.StatusCode)
	}
	missing, err := httpPatch(ts.URL + "/traces/" + corpus.Digest([]byte("nope")) + "?pin=true")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("pin missing digest: status %d, want 404", missing.StatusCode)
	}
}

// TestAnalyzeByDigest: a job referencing a stored trace by digest runs
// without re-uploading, and a second job over the same stored trace is
// served from the pipeline's digest-keyed result cache.
func TestAnalyzeByDigest(t *testing.T) {
	s, ts := testServer(t, Config{})
	payload := recordedPayload(t, 3)

	up, err := http.Post(ts.URL+"/traces", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	uploaded := decode[map[string]any](t, up)
	digest := uploaded["trace"].(map[string]any)["digest"].(string)

	submit := fmt.Sprintf(`{"trace":%q,"schemes":true}`, digest)
	resp := postJSON(t, ts.URL+"/analyze", submit)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("analyze by digest: status %d", resp.StatusCode)
	}
	sub := decode[map[string]string](t, resp)
	j := waitDone(t, ts.URL, sub["id"])
	if j["status"] != statusDone {
		t.Fatalf("digest job failed: %v", j["error"])
	}
	if j["cache_hit"] == true {
		t.Fatal("first digest job claims a cache hit")
	}
	if j["trace_digest"] != digest {
		t.Fatalf("job trace_digest = %v", j["trace_digest"])
	}
	report, _ := j["report"].(string)
	if !strings.Contains(report, "pbzip2") {
		t.Fatalf("report = %q", report)
	}

	// Same stored trace again: one cache entry shared across jobs.
	resp = postJSON(t, ts.URL+"/analyze", submit)
	sub = decode[map[string]string](t, resp)
	j2 := waitDone(t, ts.URL, sub["id"])
	if j2["status"] != statusDone {
		t.Fatalf("second digest job failed: %v", j2["error"])
	}
	if j2["cache_hit"] != true {
		t.Fatal("second digest job missed the pipeline result cache")
	}
	if j2["report"] != report {
		t.Fatal("cached digest report differs")
	}

	if n := s.pl.CacheLen(); n != 1 {
		t.Fatalf("pipeline cache holds %d entries, want 1", n)
	}
}

func TestAnalyzeByDigestErrors(t *testing.T) {
	_, ts := testServer(t, Config{})

	missing := corpus.Digest([]byte("never stored"))
	resp := postJSON(t, ts.URL+"/analyze", fmt.Sprintf(`{"trace":%q}`, missing))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: status %d, want 404", resp.StatusCode)
	}

	malformed := postJSON(t, ts.URL+"/analyze", `{"trace":"sha256:nope"}`)
	defer malformed.Body.Close()
	if malformed.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed digest: status %d, want 400", malformed.StatusCode)
	}
}

// TestCorpusDisabled: a daemon started without a corpus directory keeps
// the analyze endpoints but 503s every corpus-backed request.
func TestCorpusDisabled(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/traces", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /traces without corpus: status %d, want 503", resp.StatusCode)
	}
	byDigest := postJSON(t, ts.URL+"/analyze", fmt.Sprintf(`{"trace":%q}`, corpus.Digest([]byte("x"))))
	defer byDigest.Body.Close()
	if byDigest.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analyze by digest without corpus: status %d, want 503", byDigest.StatusCode)
	}
}

// TestNewServerRefusesNegativeConfig: a negative size or bound is a
// config error naming the field. Unchecked, -workers -5 panicked Start,
// -workers -1 answered 202 to jobs no worker would pop, -queue -1
// rejected every submit and -cache-probe-fanout -1 probed every peer. A
// negative StealInterval stays legal: it turns stealing off.
func TestNewServerRefusesNegativeConfig(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Workers", func(c *Config) { c.Workers = -5 }},
		{"Workers", func(c *Config) { c.Workers = -1 }},
		{"QueueDepth", func(c *Config) { c.QueueDepth = -1 }},
		{"CacheSize", func(c *Config) { c.CacheSize = -1 }},
		{"MaxJobs", func(c *Config) { c.MaxJobs = -1 }},
		{"CorpusMaxBytes", func(c *Config) { c.CorpusMaxBytes = -1 }},
		{"Lease", func(c *Config) { c.Lease = -time.Second }},
		{"ProbeTimeout", func(c *Config) { c.ProbeTimeout = -time.Millisecond }},
		{"ProbeFanout", func(c *Config) { c.ProbeFanout = -1 }},
		{"HintKeys", func(c *Config) { c.HintKeys = -1 }},
	} {
		var cfg Config
		c.set(&cfg)
		s, err := NewServer(cfg)
		if err == nil {
			s.Close()
			t.Errorf("negative %s accepted", c.field)
			continue
		}
		if !strings.Contains(err.Error(), " "+c.field+" must") {
			t.Errorf("negative %s: error %q does not name the field", c.field, err)
		}
	}
	s, err := NewServer(Config{Policy: jobs.Policy{StealInterval: -1}})
	if err != nil {
		t.Fatalf("negative StealInterval (stealing off) refused: %v", err)
	}
	s.Close()
}

func TestJobEviction(t *testing.T) {
	s, ts := testServer(t, Config{Policy: jobs.Policy{MaxJobs: 2}})

	var ids []string
	for i := 0; i < 4; i++ {
		resp := postJSON(t, ts.URL+"/analyze", `{"app":"pbzip2","scale":0.2,"seed":`+string(rune('0'+i))+`}`)
		sub := decode[map[string]string](t, resp)
		waitDone(t, ts.URL, sub["id"])
		ids = append(ids, sub["id"])
	}
	retained := 0
	s.node.Each(func(j *jobs.Job) {
		if j.Status == statusDone || j.Status == statusFailed {
			retained++
		}
	})
	if retained != 2 {
		t.Fatalf("retained %d finished jobs, want 2", retained)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job still served: status %d", resp.StatusCode)
	}
}
