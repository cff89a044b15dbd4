// Package vtime provides the virtual time base used by the PerfPlay
// simulator and replay engine.
//
// All timing in this repository is virtual: the discrete-event simulator
// advances per-thread clocks by explicit costs attached to instructions.
// Virtual time makes every experiment deterministic and platform
// independent, which is the property the paper's ELSC scheduler exists to
// approximate on real hardware.
package vtime

import "fmt"

// Time is an absolute virtual timestamp in ticks. One tick is an abstract
// unit; workloads choose their own scale (the experiment harness reports
// normalized quantities, so the absolute scale cancels out).
type Time int64

// Duration is a span of virtual time in ticks.
type Duration int64

// Common durations, for readability in workload definitions.
const (
	Tick Duration = 1
	// Micro approximates "one microsecond" of simulated work at the
	// default workload scale.
	Micro Duration = 1000
	// Milli approximates one millisecond.
	Milli Duration = 1000 * 1000
)

// Infinity is a timestamp later than any reachable simulation time.
const Infinity Time = 1<<63 - 1

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// String renders a timestamp with its tick unit.
func (t Time) String() string { return fmt.Sprintf("%dt", int64(t)) }

// String renders a duration with its tick unit.
func (d Duration) String() string { return fmt.Sprintf("%dt", int64(d)) }

// Seconds converts a duration to floating seconds assuming Milli ticks per
// millisecond; used only for human-readable report output.
func (d Duration) Seconds() float64 { return float64(d) / float64(Milli*1000) }
