package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "events_per_s", Unit: "events/s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDecl
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, verdictOK},
		{"slower within the bound", lower, steady, []float64{105, 106, 104, 105, 105}, verdictOK},
		{"slower beyond the bound", lower, steady, []float64{120, 121, 119, 120, 120}, verdictRegressed},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 80}, verdictOK},
		{"throughput down beyond the bound", higher, steady, []float64{80, 81, 79, 80, 80}, verdictRegressed},
		{"throughput up", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{"spread wider than the bound", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 125, 95, 105}, verdictUnresolved},
		{"wide spread but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, verdictOK},
		{"single runs", lower, []float64{100}, []float64{111}, verdictRegressed},
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func writeRunFile(t *testing.T, dir, name string, p50 []float64, failed int, events float64) string {
	t.Helper()
	f := runFile{Hardware: map[string]string{"cpu_model": "test", "nproc": "2"}, Seed: 42}
	for _, v := range p50 {
		r := &runRecord{Workload: "w", Seed: 42}
		r.Correct, r.Attempted, r.Failed = failed == 0, 100, failed
		r.Metrics = map[string]metric{"op_p50_ms": {v, "ms"}}
		f.Runs = append(f.Runs, r)
	}
	tr := &runRecord{Workload: "w", Seed: 42, Traced: true}
	tr.Metrics = map[string]metric{"trace.events": {events, "count"}}
	f.Runs = append(f.Runs, tr)
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	sp := &spec{EndToEnd: []metricDecl{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	dir := t.TempDir()
	base := writeRunFile(t, dir, "a.json", []float64{10, 10.1, 9.9}, 0, 1000)
	for _, c := range []struct {
		name string
		path string
		code int
		want string
	}{
		{"same", writeRunFile(t, dir, "same.json", []float64{10, 10.2, 9.8}, 0, 1000), 0, verdictOK},
		{"slower", writeRunFile(t, dir, "slow.json", []float64{12, 12.1, 11.9}, 0, 1000), 1, verdictRegressed},
		{"failing", writeRunFile(t, dir, "fail.json", []float64{10, 10.1, 9.9}, 3, 1000), 1, "9/300"},
		{"count moved", writeRunFile(t, dir, "count.json", []float64{10, 10.1, 9.9}, 0, 1001), 1, "count differs"},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, sp, base, c.path); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d (want %d), output:\n%s", c.name, code, c.code, out.String())
		}
	}
	var out bytes.Buffer
	if code := compareFiles(&out, sp, base, filepath.Join(dir, "missing.json")); code == 0 {
		t.Error("comparing with a missing file succeeded")
	}
}
