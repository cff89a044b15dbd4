package clustersim

import (
	"strings"
	"testing"
)

// short returns a quicker variant of the default lab config so the
// full scenario matrix stays test-suite friendly.
func short(scenario string, seed int64) Config {
	cfg := DefaultConfig(scenario, seed)
	cfg.DurationMS = 15_000
	cfg.CrashAtMS = 3_000
	return cfg
}

// TestSameSeedByteIdentical is the simulator's load-bearing invariant:
// every shipped scenario, run twice with the same seed, renders the
// same bytes. Policy sweeps, the CI smoke, and every A/B comparison
// rest on this.
func TestSameSeedByteIdentical(t *testing.T) {
	for _, sc := range Scenarios() {
		a := MustRun(short(sc, 42)).String()
		b := MustRun(short(sc, 42)).String()
		if a != b {
			t.Errorf("%s: same seed produced different reports:\n--- first\n%s--- second\n%s", sc, a, b)
		}
	}
}

// TestSeedChangesOutcome guards against the opposite failure: a
// simulator that ignores its seed would pass the determinism test
// while measuring nothing.
func TestSeedChangesOutcome(t *testing.T) {
	a := MustRun(short(ScenarioSkewed, 1)).String()
	b := MustRun(short(ScenarioSkewed, 2)).String()
	if a == b {
		t.Fatalf("seeds 1 and 2 produced identical reports:\n%s", a)
	}
}

// TestSkewedArrivalShiftsWork: under skewed arrival, the idle nodes
// must drain node 0's backlog through the real Stealer claim path —
// the acceptance criterion for the whole simulator.
func TestSkewedArrivalShiftsWork(t *testing.T) {
	r := MustRun(short(ScenarioSkewed, 42))
	if r.Claims == 0 {
		t.Fatal("skewed scenario produced zero steals")
	}
	if r.Nodes[0].StolenFrom == 0 {
		t.Fatalf("nothing stolen from the hot node: %+v", r.Nodes[0])
	}
	stolenIn := 0
	for _, n := range r.Nodes[1:] {
		stolenIn += n.CompletedStolen
	}
	if stolenIn == 0 {
		t.Fatalf("idle nodes completed no stolen work:\n%s", r)
	}
	if r.Unfinished != 0 {
		t.Fatalf("backlog did not drain: %d unfinished\n%s", r.Unfinished, r)
	}
}

// TestUniformAccountsEveryJob: the terminal accounts partition the
// generated workload exactly — no job double-counted or leaked.
func TestUniformAccountsEveryJob(t *testing.T) {
	r := MustRun(short(ScenarioUniform, 7))
	if got := r.Completed + r.Rejected + r.Lost + r.Unfinished; got != r.Jobs {
		t.Fatalf("accounts sum to %d, want %d:\n%s", got, r.Jobs, r)
	}
	if r.Unfinished != 0 {
		t.Fatalf("uniform load left %d jobs unfinished:\n%s", r.Unfinished, r)
	}
}

// TestCrashRecoversLeases: when a thief dies holding leases, the
// victims' reapers must expire and re-queue those jobs, and the run
// must still drain — crash costs latency (and the dead node's local
// jobs), never stranded work.
func TestCrashRecoversLeases(t *testing.T) {
	r := MustRun(short(ScenarioCrash, 42))
	crashed := 0
	for _, n := range r.Nodes {
		if n.Crashed {
			crashed++
		}
	}
	if crashed != 1 {
		t.Fatalf("%d nodes marked crashed, want exactly 1:\n%s", crashed, r)
	}
	if r.LeasesExpired == 0 {
		t.Fatalf("crash scenario exercised no lease recovery:\n%s", r)
	}
	if r.Unfinished != 0 {
		t.Fatalf("crash stranded %d jobs:\n%s", r.Unfinished, r)
	}
	if got := r.Completed + r.Rejected + r.Lost; got != r.Jobs {
		t.Fatalf("accounts sum to %d, want %d:\n%s", got, r.Jobs, r)
	}
}

// TestSlowNodeSheds: a 4x-slow node under uniform arrival must end up
// a net steal victim — the fast nodes pull its backlog over.
func TestSlowNodeSheds(t *testing.T) {
	r := MustRun(short(ScenarioSlowNode, 42))
	slow := r.Nodes[len(r.Nodes)-1]
	if slow.StolenFrom == 0 {
		t.Fatalf("nothing stolen from the slow node:\n%s", r)
	}
	if r.Unfinished != 0 {
		t.Fatalf("slow-node backlog did not drain:\n%s", r)
	}
}

// TestHintedStealsFire: hint-driven victim ordering is always on, as in
// perfplayd. Steal hints ride the victims' stealable digests, not the
// gossiped cache keys, so some claims are hint-aimed with or without
// cache hints — and never more claims than were made.
func TestHintedStealsFire(t *testing.T) {
	cfg := short(ScenarioSkewed, 42)
	for _, breadth := range []int{cfg.HintKeys, 0} {
		cfg.HintKeys = breadth
		r := MustRun(cfg)
		if r.HintedClaims == 0 || r.HintedClaims > r.Claims {
			t.Fatalf("breadth %d: %d hinted of %d claims, want some and at most all:\n%s",
				breadth, r.HintedClaims, r.Claims, r)
		}
	}
}

// TestReportMentionsEveryNode keeps the rendering honest: one line per
// node, in index order.
func TestReportMentionsEveryNode(t *testing.T) {
	cfg := short(ScenarioUniform, 3)
	cfg.Nodes = 3
	out := MustRun(cfg).String()
	for _, want := range []string{"node-0:", "node-1:", "node-2:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestValidation rejects configs the engine cannot run.
func TestValidation(t *testing.T) {
	bad := []Config{
		{Scenario: "nope"},
		func() Config { c := DefaultConfig(ScenarioUniform, 1); c.Nodes = 1; return c }(),
		func() Config { c := DefaultConfig(ScenarioCrash, 1); c.CrashNode = 99; return c }(),
		func() Config { c := DefaultConfig(ScenarioUniform, 1); c.Lease = 0; return c }(),
		func() Config { c := DefaultConfig(ScenarioUniform, 1); c.ProbeFanout = -1; return c }(),
		func() Config { c := DefaultConfig(ScenarioSkewed, 1); c.WarmNodes = 5; return c }(),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}
