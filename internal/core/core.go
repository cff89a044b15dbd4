// Package core holds the artifact bundle of one PerfPlay analysis — the
// per-stage outputs of Fig. 5's record → identify → transform → replay →
// debug pipeline — and its report rendering. internal/pipeline is the
// bundle's only producer.
package core

import (
	"fmt"

	"perfplay/internal/perfdbg"
	"perfplay/internal/race"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/verify"
)

// Analysis bundles every artifact of one pipeline run.
type Analysis struct {
	// App names the analyzed workload.
	App string
	// Recorded is the recording run (trace plus native measurements).
	Recorded *sim.Result
	// CSs are the extracted critical sections.
	CSs []*trace.CritSec
	// Report is the ULCP identification outcome.
	Report *ulcp.Report
	// Transformed is the ULCP-free trace and its construction artifacts.
	Transformed *transform.Result
	// OrigReplay and FreeReplay are the two ELSC replays PerfPlay
	// compares (Sec. 4).
	OrigReplay, FreeReplay *replay.Result
	// Debug holds Eq. 1/Eq. 2 results and the fused recommendations.
	Debug *perfdbg.Debug
	// Races are happens-before conflicts surfaced in the transformed
	// replay, if race detection was requested.
	Races []race.Race
	// Theorem1 is the correctness verdict, if VerifyTheorem1 was set.
	Theorem1 *verify.Report
}

// Summary returns a compact multi-line report: overall impact plus the
// top-k recommended code regions, the list Fig. 5's final stage hands to
// the programmer.
func (a *Analysis) Summary(topK int) string {
	d := a.Debug
	s := fmt.Sprintf("PerfPlay analysis of %s (%d threads)\n", a.App, a.Threads())
	s += fmt.Sprintf(" dynamic locks: %d  critical sections: %d\n",
		dynamicLocks(a), len(a.CSs))
	s += fmt.Sprintf(" ULCPs: %d (null-lock %d, read-read %d, disjoint-write %d, benign %d), TLCPs: %d\n",
		a.Report.NumULCPs(),
		a.Report.Counts[ulcp.NullLock], a.Report.Counts[ulcp.ReadRead],
		a.Report.Counts[ulcp.DisjointWrite], a.Report.Counts[ulcp.Benign],
		a.Report.Counts[ulcp.TLCP])
	s += fmt.Sprintf(" replayed: original %v, ULCP-free %v  => degradation %.2f%%\n",
		d.Tut, d.Tuft, d.NormalizedDegradation()*100)
	s += fmt.Sprintf(" resource waste: %v (%.2f%%/thread)\n",
		d.Trw, d.CPUWastePerThread(a.Threads())*100)
	if len(a.Races) > 0 {
		s += fmt.Sprintf(" data races reported in transformed trace: %d\n", len(a.Races))
	}
	if len(d.Groups) > 0 {
		s += fmt.Sprintf(" grouped ULCP code regions: %d; top recommendations:\n", len(d.Groups))
		for i, g := range d.Recommend(topK) {
			s += fmt.Sprintf("  #%d %s\n", i+1, g)
		}
	}
	return s
}

// Threads is the analyzed execution's thread count: the recording's
// when this analysis recorded, else the replay's view for loaded
// traces. The single source every summary — local, daemon, or wire —
// derives the number from.
func (a *Analysis) Threads() int {
	if a.Recorded != nil {
		return a.Recorded.Trace.NumThreads
	}
	if a.OrigReplay != nil {
		return len(a.OrigReplay.PerThreadCPU)
	}
	return 0
}

func dynamicLocks(a *Analysis) int {
	if a.Recorded != nil {
		return a.Recorded.Trace.DynamicLocks()
	}
	return len(a.CSs)
}
