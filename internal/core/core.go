// Package core holds the artifact bundle of one PerfPlay analysis — the
// per-stage outputs of Fig. 5's record → identify → transform → replay →
// debug pipeline — and the trace-free Summary it distills to, which
// renders the report. internal/pipeline is the bundle's only producer.
package core

import (
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
	// Transformed is the ULCP-free schedule: the plan over the recording
	// and its counters. Its Trace is nil on every run — the replay, the
	// Theorem 1 check and the race detector all read the plan.
	Transformed *transform.Result
	// OrigReplay and FreeReplay are the two ELSC replays PerfPlay
	// compares (Sec. 4).
	OrigReplay, FreeReplay *replay.Result
	// Debug holds Eq. 1/Eq. 2 results and the fused recommendations.
	Debug *perfdbg.Debug
	// Races are happens-before conflicts surfaced over the ULCP-free
	// replay, if race detection was requested.
	Races []race.Race
	// Theorem1 is the correctness verdict, if VerifyTheorem1 was set.
	Theorem1 *verify.Report
}

// Summarize distills the bundle into its trace-free Summary. The thread
// and dynamic-lock counts are the recording's when this analysis
// recorded, else the replay's view of a loaded trace.
func (a *Analysis) Summarize() *Summary {
	s := &Summary{
		App:          a.App,
		DynamicLocks: len(a.CSs),
		CritSecs:     len(a.CSs),
		Counts:       a.Report.Counts,
		ULCPs:        a.Report.NumULCPs(),
		Debug:        a.Debug,
		Races:        a.Races,
		Theorem1:     a.Theorem1,
	}
	if a.Recorded != nil {
		s.Threads, s.DynamicLocks = a.Recorded.Trace.NumThreads, a.Recorded.Trace.DynamicLocks()
	} else if a.OrigReplay != nil {
		s.Threads = len(a.OrigReplay.PerThreadCPU)
	}
	return s
}

// Summary returns the report text at depth topK (see Summary.Render).
func (a *Analysis) Summary(topK int) string { return a.Summarize().Render(topK) }
