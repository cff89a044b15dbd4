package main

import (
	"os"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP perfplay_pipeline_cache_requests_total Cache lookups.
# TYPE perfplay_pipeline_cache_requests_total counter
perfplay_pipeline_cache_requests_total{cache="result",outcome="hit"} 10
perfplay_pipeline_cache_requests_total{cache="result",outcome="miss"} 4
# HELP perfplay_pipeline_stage_duration_seconds Stage wall time.
# TYPE perfplay_pipeline_stage_duration_seconds histogram
perfplay_pipeline_stage_duration_seconds_bucket{stage="replay",le="+Inf"} 4
perfplay_pipeline_stage_duration_seconds_sum{stage="replay"} 0.25
perfplay_pipeline_stage_duration_seconds_count{stage="replay"} 4
`

const scrapeAfter = `perfplay_pipeline_cache_requests_total{cache="result",outcome="hit"} 40
perfplay_pipeline_cache_requests_total{cache="result",outcome="miss"} 14

perfplay_pipeline_stage_duration_seconds_sum{stage="replay"} 0.75
perfplay_pipeline_stage_duration_seconds_count{stage="replay"} 14
perfplay_journal_appended_bytes_total 1.5e+03
`

func TestScrapeDelta(t *testing.T) {
	before, err := parseScrape(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseScrape(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		series string
		want   float64
	}{
		{`perfplay_pipeline_cache_requests_total{cache="result",outcome="hit"}`, 30},
		{`perfplay_pipeline_cache_requests_total{cache="result",outcome="miss"}`, 10},
		{`perfplay_pipeline_stage_duration_seconds_sum{stage="replay"}`, 0.5},
		{`perfplay_pipeline_stage_duration_seconds_count{stage="replay"}`, 10},
		{`perfplay_journal_appended_bytes_total`, 1500}, // absent before: counts from zero
		{`perfplay_never_seen_total`, 0},
	} {
		if got := delta(before, after, c.series); !near(got, c.want) {
			t.Errorf("delta(%s) = %v, want %v", c.series, got, c.want)
		}
	}
	for _, bad := range []string{"novalue\n", "name notanumber\n"} {
		if _, err := parseScrape(strings.NewReader(bad)); err == nil {
			t.Errorf("parseScrape(%q) accepted a malformed line", bad)
		}
	}
}

func TestProcReaders(t *testing.T) {
	pid := os.Getpid()
	if cpu, err := procCPU(pid); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if mb, err := procStatusMB(pid, "VmHWM"); err != nil || mb <= 0 {
		t.Errorf("procStatusMB(self, VmHWM) = %v, %v", mb, err)
	}
	if _, err := procStatusMB(pid, "NoSuchField"); err == nil {
		t.Error("procStatusMB found a field that does not exist")
	}
	if _, err := procCPU(-1); err == nil {
		t.Error("procCPU(-1) succeeded")
	}
}

func TestDaemonBootFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	// A "daemon" that exits at once must fail the boot, not hang it.
	if _, err := startDaemon("/bin/false", dir+"/node", dir+"/log"); err == nil || !strings.Contains(err.Error(), "exited during boot") {
		t.Errorf("startDaemon(/bin/false) = %v, want an early-exit error", err)
	}
	if _, err := startDaemon(dir+"/missing", dir+"/node", dir+"/log"); err == nil {
		t.Error("startDaemon of a missing binary succeeded")
	}
}
