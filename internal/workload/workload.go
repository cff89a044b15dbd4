// Package workload models the sixteen applications of the paper's
// evaluation — five real-world programs (openldap, mysql, pbzip2,
// transmissionBT, handbrake) and eleven PARSEC benchmarks — as simulator
// programs, plus the verified case-study bugs of Sec. 6.6.
//
// Each model reproduces the application's *dynamic locking behaviour* as
// the paper characterizes it (Table 1's lock counts and ULCP category
// mix, and the idioms of the appendix cases), not its computation: ULCP
// analysis consumes only the trace — lock order, per-CS read/write sets
// and segment costs — so that is what the models generate.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"perfplay/internal/sim"
	"perfplay/internal/vtime"
)

// InputSize selects the PARSEC-style input class.
type InputSize int

// PARSEC input classes (Sec. 6.1 runs simlarge by default; Fig. 16 sweeps
// all three).
// The zero value selects the default class, simlarge.
const (
	SimDefault InputSize = iota
	SimSmall
	SimMedium
	SimLarge
)

// String names the input class as PARSEC does.
func (s InputSize) String() string {
	switch s {
	case SimSmall:
		return "simsmall"
	case SimMedium:
		return "simmedium"
	case SimLarge:
		return "simlarge"
	default:
		return fmt.Sprintf("InputSize(%d)", int(s))
	}
}

// ParseInputSize maps a PARSEC input-class name to its InputSize; the
// empty string selects the default class (simlarge). Shared by every
// front end that accepts the class by name (CLI flags, daemon specs).
func ParseInputSize(name string) (InputSize, error) {
	switch strings.ToLower(name) {
	case "", "simlarge":
		return SimLarge, nil
	case "simmedium":
		return SimMedium, nil
	case "simsmall":
		return SimSmall, nil
	}
	return 0, fmt.Errorf("workload: unknown input size %q", name)
}

// factor converts the input class to an iteration multiplier.
func (s InputSize) factor() float64 {
	switch s {
	case SimSmall:
		return 0.25
	case SimMedium:
		return 0.5
	default:
		return 1.0
	}
}

// Config parameterizes one workload build.
type Config struct {
	// Threads is the worker thread count (paper default: 2).
	Threads int
	// Input is the PARSEC input class; real-world apps map it onto their
	// own input units (search entries, file size).
	Input InputSize
	// Scale multiplies every iteration count; 1.0 reproduces paper-scale
	// dynamic lock counts, tests use smaller values. Zero means 1.0.
	Scale float64
	// Seed feeds the simulator.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 2
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Input <= SimDefault || c.Input > SimLarge {
		c.Input = SimLarge
	}
	return c
}

// iters scales a base per-thread iteration count by Scale and Input.
func (c Config) iters(base int) int {
	n := int(float64(base) * c.Scale * c.Input.factor())
	if n < 1 {
		n = 1
	}
	return n
}

// App is a registered workload.
type App struct {
	// Name is the canonical lower-case application name.
	Name string
	// Kind is "server", "desktop" or "parsec".
	Kind string
	// LOC and BinSize echo Table 1's static columns (code size of the
	// modelled application), for report output only.
	LOC, BinSize string
	// Build constructs the simulator program.
	Build func(cfg Config) *sim.Program
}

var registry = map[string]*App{}

// order fixes the presentation order to Table 1's: the five real-world
// programs, then PARSEC.
var order = []string{
	"openldap", "mysql", "pbzip2", "transmissionBT", "handbrake",
	"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
	"fluidanimate", "streamcluster", "swaptions", "vips", "x264",
}

func register(a *App) {
	if _, dup := registry[a.Name]; dup {
		panic("workload: duplicate app " + a.Name)
	}
	found := false
	for _, n := range order {
		if n == a.Name {
			found = true
			break
		}
	}
	if !found {
		panic("workload: app " + a.Name + " missing from presentation order")
	}
	registry[a.Name] = a
}

// Get returns a registered app by name.
func Get(name string) (*App, bool) {
	a, ok := registry[name]
	return a, ok
}

// MustGet returns a registered app or panics; for harness code whose app
// names are compile-time constants.
func MustGet(name string) *App {
	a, ok := registry[name]
	if !ok {
		panic("workload: unknown app " + name)
	}
	return a
}

// Names lists all registered app names in Table 1 order.
func Names() []string {
	out := append([]string(nil), order...)
	return out
}

// All returns every registered app in Table 1 order.
func All() []*App {
	out := make([]*App, 0, len(order))
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// Parsec returns the PARSEC benchmark apps.
func Parsec() []*App { return byKind("parsec") }

func byKind(kind string) []*App {
	var out []*App
	for _, n := range order {
		if registry[n].Kind == kind {
			out = append(out, registry[n])
		}
	}
	return out
}

// SortedNames returns registered names alphabetically (for CLI help).
func SortedNames() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// jittered returns d perturbed by ±12% using the thread's deterministic
// RNG, avoiding artificial lockstep between identical thread bodies.
func jittered(th *sim.Thread, d vtime.Duration) vtime.Duration {
	if d <= 0 {
		return d
	}
	span := int(d / 4)
	if span == 0 {
		return d
	}
	return d - vtime.Duration(span/2) + vtime.Duration(th.Intn(span))
}
