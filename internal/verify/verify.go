// Package verify implements the Theorem 1 check: the ULCP-free schedule
// "is performed with a guarantee of either the program correctness or
// reporting the data races". The verifier compares the observable
// outcomes (final memory and every value observed by every read) of the
// two ELSC replays the pipeline already ran — the recording's and the
// recording's under its plan — and, on divergence, runs the
// happens-before detector to surface the interleaving-sensitive races
// responsible.
package verify

import (
	"fmt"
	"strings"

	"perfplay/internal/race"
	"perfplay/internal/replay"
	"perfplay/internal/trace"
)

// Verdict classifies the outcome of a Theorem 1 check.
type Verdict int

const (
	// SemanticsPreserved: the transformed trace produced the same result
	// as the original — the common case the theorem's first branch covers.
	SemanticsPreserved Verdict = iota
	// RacesReported: the result diverged and the detector found the
	// responsible data races — the theorem's second branch: the
	// divergence is itself a diagnosis ("it further enables PerfPlay to
	// help developers understand the correctness of the original trace").
	RacesReported
	// Violated: the result diverged and no race explains it. This
	// indicates a transformation bug and fails the check.
	Violated
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case SemanticsPreserved:
		return "semantics-preserved"
	case RacesReported:
		return "races-reported"
	case Violated:
		return "violated"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Report is the full outcome of one verification.
type Report struct {
	Verdict Verdict
	// SameFinalState and SameReads break down the outcome comparison.
	SameFinalState, SameReads bool
	// Races holds the detector findings when the outcome diverged.
	Races []race.Race
	// Speedup is the transformed/original makespan ratio (< 1 is faster).
	Speedup float64
}

// Ok reports whether Theorem 1 holds (either branch).
func (r *Report) Ok() bool { return r.Verdict != Violated }

// String renders a short report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "theorem-1 check: %s (speedup %.3fx)", r.Verdict, r.Speedup)
	if len(r.Races) > 0 {
		fmt.Fprintf(&b, "; %d race(s):", len(r.Races))
		for _, rc := range r.Races {
			fmt.Fprintf(&b, "\n  %s", rc)
		}
	}
	return b.String()
}

// Check applies Theorem 1 to two ELSC replays of the recording tr: orig as
// recorded, free under plan. It replays nothing itself. order is free's
// linearization, race.OrderByStart(free.EventStart), when the caller has
// it, else nil and Check builds it if the outcomes diverge. maxRaces caps
// detector output (0 = no cap).
func Check(tr *trace.Trace, plan *trace.Plan, orig, free *replay.Result, order []int32, maxRaces int) *Report {
	rep := &Report{
		SameFinalState: free.FinalMem.Equal(orig.FinalMem),
		SameReads:      free.ReadHash == orig.ReadHash,
	}
	if orig.Total > 0 {
		rep.Speedup = float64(free.Total) / float64(orig.Total)
	}
	if rep.SameFinalState && rep.SameReads {
		rep.Verdict = SemanticsPreserved
		return rep
	}
	if order == nil {
		order = race.OrderByStart(free.EventStart)
	}
	rep.Races = race.Detect(tr, plan, order, maxRaces)
	if len(rep.Races) > 0 {
		rep.Verdict = RacesReported
	} else {
		rep.Verdict = Violated
	}
	return rep
}
