package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"perfplay/internal/perfdbg"
	"perfplay/internal/race"
	"perfplay/internal/replay"
	"perfplay/internal/ulcp"
	"perfplay/internal/verify"
	"perfplay/internal/vtime"
)

// Summary is a finished analysis without anything it analyzed: the
// quantified impact and the ranked ULCP code regions (Fig. 5's last
// stage), and no trace, critical section, pair or replay. The result
// cache retains it, a cache hit renders from it at any depth, and At
// renders it into the one shape that crosses the wire and sits in the
// daemon's job record. Read-only: holders of a cache key share one.
type Summary struct {
	App          string
	Threads      int
	DynamicLocks int
	CritSecs     int
	// Counts tallies the classified pairs by category; ULCPs totals the
	// unnecessary ones.
	Counts [ulcp.NumCategories]int
	ULCPs  int
	// Debug holds every fused group, so any depth renders from it.
	Debug    *perfdbg.Debug
	Races    []race.Race
	Theorem1 *verify.Report

	// Schemes (scheduler order), the recording's own wall time they are
	// printed against, and the computing run's stage wall clocks are
	// the pipeline's to fill; an Analysis holds none of them.
	Schemes  []SchemeTotal
	Recorded vtime.Duration
	Timings  []StageTiming
}

// SchemeTotal is one scheduler's replayed makespan.
type SchemeTotal struct {
	Sched replay.Scheduler
	Total vtime.Duration
}

// StageTiming records one pipeline stage's wall-clock time
// (observability only). It marshals as {"stage", "wall_ns", "wall"};
// Start only places the stage on the running node's span timeline.
type StageTiming struct {
	Stage string
	Wall  time.Duration
	Start time.Time
}

type stageTimingJSON struct {
	Stage  string `json:"stage"`
	WallNS int64  `json:"wall_ns"`
	Wall   string `json:"wall"`
}

func (t StageTiming) MarshalJSON() ([]byte, error) {
	return json.Marshal(stageTimingJSON{t.Stage, t.Wall.Nanoseconds(), t.Wall.String()})
}

func (t *StageTiming) UnmarshalJSON(b []byte) error {
	var j stageTimingJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*t = StageTiming{Stage: j.Stage, Wall: time.Duration(j.WallNS)}
	return nil
}

// Rendered is a Summary at one report depth — the single JSON shape of
// a finished job: the daemon's job record embeds it, a thief posts it
// back, and a cluster-cache export is a key, a depth and exactly this.
type Rendered struct {
	App            string            `json:"app,omitempty"`
	Threads        int               `json:"threads,omitempty"`
	CritSecs       int               `json:"critical_sections,omitempty"`
	ULCPs          int               `json:"ulcps,omitempty"`
	DegradationPct float64           `json:"degradation_pct,omitempty"`
	Schemes        map[string]string `json:"schemes,omitempty"`
	// CacheHit is the server's to set (At leaves it false): no pipeline
	// stage ran for this job, so Timings are the computing run's.
	CacheHit bool          `json:"cache_hit,omitempty"`
	Report   string        `json:"report,omitempty"`
	Timings  []StageTiming `json:"timings,omitempty"`
}

// At renders the summary at one report depth.
func (s *Summary) At(topK int) Rendered {
	r := Rendered{
		App:            s.App,
		Threads:        s.Threads,
		CritSecs:       s.CritSecs,
		ULCPs:          s.ULCPs,
		DegradationPct: s.Debug.NormalizedDegradation() * 100,
		Report:         s.Render(topK),
		Timings:        s.Timings,
	}
	if len(s.Schemes) > 0 {
		r.Schemes = make(map[string]string, len(s.Schemes))
		for _, sc := range s.Schemes {
			r.Schemes[sc.Sched.String()] = sc.Total.String()
		}
	}
	return r
}

// Render is the report text, the module's only copy: overall impact,
// the top-k recommended code regions (the list Fig. 5's final stage
// hands to the programmer), then the optional Theorem 1 verdict, scheme
// replays and race lines.
func (s *Summary) Render(topK int) string {
	d := s.Debug
	var b strings.Builder
	fmt.Fprintf(&b, "PerfPlay analysis of %s (%d threads)\n", s.App, s.Threads)
	fmt.Fprintf(&b, " dynamic locks: %d  critical sections: %d\n", s.DynamicLocks, s.CritSecs)
	fmt.Fprintf(&b, " ULCPs: %d (null-lock %d, read-read %d, disjoint-write %d, benign %d), TLCPs: %d\n",
		s.ULCPs,
		s.Counts[ulcp.NullLock], s.Counts[ulcp.ReadRead],
		s.Counts[ulcp.DisjointWrite], s.Counts[ulcp.Benign],
		s.Counts[ulcp.TLCP])
	fmt.Fprintf(&b, " replayed: original %v, ULCP-free %v  => degradation %.2f%%\n",
		d.Tut, d.Tuft, d.NormalizedDegradation()*100)
	fmt.Fprintf(&b, " resource waste: %v (%.2f%%/thread)\n",
		d.Trw, d.CPUWastePerThread(s.Threads)*100)
	if len(s.Races) > 0 {
		fmt.Fprintf(&b, " data races reported in transformed trace: %d\n", len(s.Races))
	}
	if len(d.Groups) > 0 {
		fmt.Fprintf(&b, " grouped ULCP code regions: %d; top recommendations:\n", len(d.Groups))
		for i, g := range d.Recommend(topK) {
			fmt.Fprintf(&b, "  #%d %s\n", i+1, g)
		}
	}
	if s.Theorem1 != nil {
		fmt.Fprintf(&b, " %s\n", s.Theorem1)
	}
	if len(s.Schemes) > 0 {
		fmt.Fprintf(&b, " scheme replays (recorded %v):", s.Recorded)
		for _, sc := range s.Schemes {
			fmt.Fprintf(&b, "  %v %v", sc.Sched, sc.Total)
		}
		b.WriteByte('\n')
	}
	for _, r := range s.Races {
		fmt.Fprintf(&b, " race: %s\n", r)
	}
	return b.String()
}
