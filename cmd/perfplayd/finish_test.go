package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"perfplay/internal/clusterapi"
	"perfplay/internal/core"
	"perfplay/internal/jobs"
)

// scrape reads GET /metrics into one value per series, keyed as the
// series is rendered (`perfplay_jobs_completed_total{status="done"}`).
// A series not yet recorded reads 0.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(readBody(t, mustGet(t, base+"/metrics")), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if n, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = n
		}
	}
	return out
}

// TestEveryTerminalPathCountsAndRootsTheJob: however a job ends — a
// local run, a thief's report, a lease that expires into a closed
// queue, a loss at boot — it passes through jobs.Node.finish, so the
// completed counter counts it and the job's trace has exactly one root
// span. The last two paths used to set the status by hand and skipped
// both. No job is evicted here, so the counter also equals /healthz's
// retained jobs by status; past MaxJobs the counter keeps counting the
// evicted ones.
func TestEveryTerminalPathCountsAndRootsTheJob(t *testing.T) {
	// claimed submits one job to a node whose workers never start and
	// has a thief claim it.
	claimed := func(t *testing.T, cfg Config) (*Server, string, string) {
		srv, ts := saturatedVictim(t, cfg)
		id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec))["id"]
		if claim := postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://thief:1"}`); claim.StatusCode != http.StatusOK {
			t.Fatalf("claim: status %d", claim.StatusCode)
		}
		return srv, ts.URL, id
	}
	settle := func(body string) func(*testing.T) (string, string) {
		return func(t *testing.T) (string, string) {
			_, base, id := claimed(t, Config{})
			if resp := postJSON(t, base+"/jobs/"+id+"/result", body); resp.StatusCode != http.StatusOK {
				t.Fatalf("settle: status %d", resp.StatusCode)
			}
			return base, id
		}
	}
	cases := []struct {
		name   string
		status string
		run    func(t *testing.T) (base, id string)
	}{
		{"local run", statusDone, func(t *testing.T) (string, string) {
			_, ts := testServer(t, Config{})
			return ts.URL, runJob(t, ts.URL, goldenSpecs[0].spec)["id"].(string)
		}},
		{"local failure", statusFailed, func(t *testing.T) (string, string) {
			srv, ts := saturatedVictim(t, Config{})
			meta, _, err := srv.corpus.Put(recordedPayload(t, 3), false)
			if err != nil {
				t.Fatal(err)
			}
			id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", digestSpec(meta.Digest)))["id"]
			// The blob vanishes while the job waits: its loader fails.
			if err := srv.corpus.Delete(meta.Digest); err != nil {
				t.Fatal(err)
			}
			srv.Start()
			return ts.URL, id
		}},
		{"thief settles", statusDone, settle(`{"thief":"http://thief:1","summary":{"report":"r"}}`)},
		{"thief reports failure", statusFailed, settle(`{"thief":"http://thief:1","error":"boom"}`)},
		{"lease expires into a closed queue", statusFailed, func(t *testing.T) (string, string) {
			srv, base, id := claimed(t, Config{Policy: jobs.Policy{Lease: 300 * time.Millisecond}})
			// Close the node while the lease is out; the reaper then takes
			// the lapsed lease back into a node that requeues nothing.
			srv.node.Close()
			srv.Start() // arms the reaper; the thief never reports
			return base, id
		}},
		{"lost at boot", statusFailed, func(t *testing.T) (string, string) {
			dir := t.TempDir()
			cfg := Config{CorpusDir: filepath.Join(dir, "corpus"), JournalDir: filepath.Join(dir, "journal")}
			aSrv, err := NewServer(cfg) // workers never started
			if err != nil {
				t.Fatal(err)
			}
			aTS := httptest.NewServer(aSrv.Handler())
			meta, _, err := aSrv.corpus.Put(recordedPayload(t, 3), false)
			if err != nil {
				t.Fatal(err)
			}
			id := decode[map[string]string](t, postJSON(t, aTS.URL+"/analyze", digestSpec(meta.Digest)))["id"]
			// The blob goes before the restart: recovery cannot reload it.
			if err := aSrv.corpus.Delete(meta.Digest); err != nil {
				t.Fatal(err)
			}
			aTS.Close()
			aSrv.Close()
			_, b := testServer(t, cfg)
			return b.URL, id
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, id := tc.run(t)
			if j := waitDone(t, base, id); j["status"] != tc.status {
				t.Fatalf("job ended %v (%v), want %s", j["status"], j["error"], tc.status)
			}
			health, _ := decode[map[string]any](t, mustGet(t, base+"/healthz"))["jobs"].(map[string]any)
			metrics := scrape(t, base)
			counted := func(status string) float64 {
				return metrics[fmt.Sprintf("perfplay_jobs_completed_total{status=%q}", status)]
			}
			for _, status := range []string{statusDone, statusFailed} {
				have, _ := health[status].(float64)
				if counted(status) != have {
					t.Errorf("perfplay_jobs_completed_total{status=%q} = %v, /healthz counts %v", status, counted(status), have)
				}
			}
			if counted(tc.status) != 1 {
				t.Errorf("completed{%s} = %v, want 1", tc.status, counted(tc.status))
			}
			roots := getTrace(t, base, id).byName("job")
			if len(roots) != 1 || roots[0].Attrs["status"] != tc.status {
				t.Errorf("trace has root spans %+v, want exactly one with status %s", roots, tc.status)
			}
		})
	}
}

// jobView is the part of GET /jobs/{id} the serving tests read.
type jobView struct {
	Status string `json:"status"`
	Error  string `json:"error"`
	core.Rendered
}

// summaryOf extracts what TestJobJSONSameHoweverServed compares: the
// job's summary fields, with the parts that legitimately differ between
// servings — who did no stage work, and how long the stages took —
// blanked.
func summaryOf(t *testing.T, base, id string) core.Rendered {
	t.Helper()
	j := decode[jobView](t, mustGet(t, base+"/jobs/"+id))
	if j.Status != statusDone {
		t.Fatalf("job %s: %s (%s)", id, j.Status, j.Error)
	}
	sum := j.Rendered
	sum.CacheHit = false
	for i := range sum.Timings {
		sum.Timings[i].Wall = 0
	}
	return sum
}

// TestJobJSONSameHoweverServed: one spec run locally, answered from the
// local result cache, stolen by a peer and settled from a peer's cache
// yields field-for-field the same job summary — the four servings fill
// one struct from one renderer.
func TestJobJSONSameHoweverServed(t *testing.T) {
	payload := recordedPayload(t, 3)
	submit := func(base, spec string) string {
		resp := postJSON(t, base+"/analyze", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		id := decode[map[string]string](t, resp)["id"]
		waitDone(t, base, id)
		return id
	}

	localSrv, local := testServer(t, Config{})
	meta, _, err := localSrv.corpus.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	spec := fmt.Sprintf(`{"trace":%q,"schemes":true,"races":true,"top":3}`, meta.Digest)
	want := summaryOf(t, local.URL, submit(local.URL, spec))
	if want.Report == "" || want.ULCPs == 0 || len(want.Schemes) != 4 || len(want.Timings) != 5 {
		t.Fatalf("implausible reference summary: %+v", want)
	}

	servings := []struct {
		name string
		run  func(t *testing.T) (base, id string, check func(j map[string]any))
	}{
		{"local cache hit", func(t *testing.T) (string, string, func(map[string]any)) {
			return local.URL, submit(local.URL, spec), func(j map[string]any) {
				if j["cache_hit"] != true || j["cache_peer"] != nil {
					t.Errorf("cache_hit=%v cache_peer=%v, want a local hit", j["cache_hit"], j["cache_peer"])
				}
			}
		}},
		{"stolen", func(t *testing.T) (string, string, func(map[string]any)) {
			victimSrv, victim := saturatedVictim(t, Config{})
			if _, _, err := victimSrv.corpus.Put(payload, false); err != nil {
				t.Fatal(err)
			}
			_, thief := thiefServer(t, victim.URL)
			return victim.URL, submit(victim.URL, spec), func(j map[string]any) {
				if j["stolen_by"] != thief.URL {
					t.Errorf("stolen_by = %v, want %s", j["stolen_by"], thief.URL)
				}
			}
		}},
		{"peer cache", func(t *testing.T) (string, string, func(map[string]any)) {
			coldSrv, cold := testServer(t, Config{Peers: []string{local.URL}})
			if _, _, err := coldSrv.corpus.Put(payload, false); err != nil {
				t.Fatal(err)
			}
			return cold.URL, submit(cold.URL, spec), func(j map[string]any) {
				if j["cache_hit"] != true || j["cache_peer"] != local.URL {
					t.Errorf("cache_hit=%v cache_peer=%v, want a hit served by %s", j["cache_hit"], j["cache_peer"], local.URL)
				}
			}
		}},
	}
	for _, sv := range servings {
		t.Run(sv.name, func(t *testing.T) {
			base, id, check := sv.run(t)
			check(decode[map[string]any](t, mustGet(t, base+"/jobs/"+id)))
			if got := summaryOf(t, base, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("summary differs from the local run's:\nwant: %+v\ngot:  %+v", want, got)
			}
		})
	}
}

// wirePeer is a fake peer whose result cache answers every key with a
// fixed body; it holds no tables.
func wirePeer(t *testing.T, body func(key string) string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cache/results/{key}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, body(r.PathValue("key")))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestPeerSuppliedResultMustFitAndMatchShape: a peer's cache answer in
// the parent commit's shape (every pair under "ulcp", no "ulcps" count)
// or past the summary bound is a miss — never imported — and the job
// runs locally to the bytes a standalone node produces.
func TestPeerSuppliedResultMustFitAndMatchShape(t *testing.T) {
	payload := recordedPayload(t, 3)
	refSrv, ref := testServer(t, Config{})
	meta, _, err := refSrv.corpus.Put(payload, false)
	if err != nil {
		t.Fatal(err)
	}
	want := runJobReport(t, ref.URL, digestSpec(meta.Digest))

	for name, body := range map[string]func(key string) string{
		"parent shape": func(key string) string {
			return fmt.Sprintf(`{"key":%q,"top":5,"app":"pbzip2","threads":2,"critical_sections":1,`+
				`"ulcp":{"pairs":[{"c1":0,"c2":1,"cat":1}]},"degradation_pct":1,"report":"not the report"}`, key)
		},
		"oversized": func(key string) string {
			return fmt.Sprintf(`{"key":%q,"top":5,"ulcps":1,"report":%q}`, key, strings.Repeat("x", maxSummaryBytes))
		},
	} {
		t.Run(name, func(t *testing.T) {
			srv, ts := testServer(t, Config{Peers: []string{wirePeer(t, body)}, Policy: jobs.Policy{ProbeTimeout: 5 * time.Second}})
			if _, _, err := srv.corpus.Put(payload, false); err != nil {
				t.Fatal(err)
			}
			j := runJob(t, ts.URL, digestSpec(meta.Digest))
			if j["report"] != want {
				t.Fatalf("report differs from a standalone run:\nwant:\n%s\ngot:\n%s", want, j["report"])
			}
			if j["cache_hit"] != nil || j["cache_peer"] != nil {
				t.Fatalf("cache_hit=%v cache_peer=%v, want a local run", j["cache_hit"], j["cache_peer"])
			}
			if probes, hits := srv.cacheStats.probes.Int(), srv.cacheStats.remoteHits.Int(); probes != 1 || hits != 0 {
				t.Fatalf("probes=%d hits=%d, want the one probe to miss", probes, hits)
			}
		})
	}
}

// TestOversizedStealResultRejected: a settle body past the summary
// bound answers 413 and settles nothing — the lease stands, and a
// well-formed report still lands.
func TestOversizedStealResultRejected(t *testing.T) {
	_, ts := saturatedVictim(t, Config{})
	id := decode[map[string]string](t, postJSON(t, ts.URL+"/analyze", goldenSpecs[0].spec))["id"]
	if claim := postJSON(t, ts.URL+"/jobs/claim", `{"thief":"http://thief:1"}`); claim.StatusCode != http.StatusOK {
		t.Fatalf("claim: status %d", claim.StatusCode)
	}
	huge := fmt.Sprintf(`{"thief":"http://thief:1","summary":{"report":%q}}`, strings.Repeat("x", maxSummaryBytes))
	resp := postJSON(t, ts.URL+"/jobs/"+id+"/result", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized result: status %d, want 413", resp.StatusCode)
	}
	if e := apiError(t, resp); e.Code != clusterapi.CodeBodyTooLarge {
		t.Fatalf("oversized result: code %q", e.Code)
	}
	if j := decode[map[string]any](t, mustGet(t, ts.URL+"/jobs/"+id)); j["status"] != statusRunning {
		t.Fatalf("job is %v after a rejected result, want still on lease", j["status"])
	}
	ok := postJSON(t, ts.URL+"/jobs/"+id+"/result", `{"thief":"http://thief:1","summary":{"report":"r"}}`)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("well-formed result after the rejection: status %d", ok.StatusCode)
	}
}
