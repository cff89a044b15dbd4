package workload

import (
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	if len(Names()) != 16 {
		t.Fatalf("registered apps = %d, want 16", len(Names()))
	}
	if len(Parsec()) != 11 {
		t.Fatalf("parsec apps = %d, want 11", len(Parsec()))
	}
	if n := len(byKind("server")) + len(byKind("desktop")); n != 5 {
		t.Fatalf("real-world apps = %d, want 5", n)
	}
	// Table 1 presentation order starts with the servers.
	if Names()[0] != "openldap" || Names()[1] != "mysql" {
		t.Fatalf("order = %v", Names()[:2])
	}
	if _, ok := Get("nonesuch"); ok {
		t.Fatal("unknown app resolved")
	}
	if MustGet("vips") == nil {
		t.Fatal("MustGet failed")
	}
}

func TestEveryAppBuildsAndValidates(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			p := app.Build(Config{Threads: 2, Scale: 0.05, Seed: 3})
			res := sim.Run(p, sim.Config{Seed: 3})
			if err := res.Trace.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			if app.Name != "blackscholes" && res.Trace.DynamicLocks() == 0 {
				t.Fatal("no locks recorded")
			}
		})
	}
}

func TestBuildsAreDeterministic(t *testing.T) {
	for _, name := range []string{"mysql", "pbzip2", "fluidanimate"} {
		app := MustGet(name)
		r1 := sim.Run(app.Build(Config{Threads: 2, Scale: 0.05, Seed: 9}), sim.Config{Seed: 9})
		r2 := sim.Run(app.Build(Config{Threads: 2, Scale: 0.05, Seed: 9}), sim.Config{Seed: 9})
		if r1.Total != r2.Total || len(r1.Trace.Events) != len(r2.Trace.Events) {
			t.Fatalf("%s: nondeterministic build (%v/%d vs %v/%d)",
				name, r1.Total, len(r1.Trace.Events), r2.Total, len(r2.Trace.Events))
		}
	}
}

func TestLocksScaleWithThreads(t *testing.T) {
	app := MustGet("bodytrack")
	small := sim.Run(app.Build(Config{Threads: 2, Scale: 0.05, Seed: 1}), sim.Config{Seed: 1})
	big := sim.Run(app.Build(Config{Threads: 8, Scale: 0.05, Seed: 1}), sim.Config{Seed: 1})
	if big.Trace.DynamicLocks() <= small.Trace.DynamicLocks()*2 {
		t.Fatalf("locks did not scale with threads: %d -> %d",
			small.Trace.DynamicLocks(), big.Trace.DynamicLocks())
	}
}

func TestInputSizeScalesWork(t *testing.T) {
	app := MustGet("vips")
	s := sim.Run(app.Build(Config{Threads: 2, Scale: 0.1, Input: SimSmall, Seed: 1}), sim.Config{Seed: 1})
	l := sim.Run(app.Build(Config{Threads: 2, Scale: 0.1, Input: SimLarge, Seed: 1}), sim.Config{Seed: 1})
	if l.Trace.DynamicLocks() <= s.Trace.DynamicLocks() {
		t.Fatalf("locks did not grow with input: %d -> %d",
			s.Trace.DynamicLocks(), l.Trace.DynamicLocks())
	}
	if l.Total <= s.Total {
		t.Fatal("run time did not grow with input")
	}
}

func TestOpenldapFixSavesCPU(t *testing.T) {
	cfg := Config{Threads: 4, Scale: 0.05, Seed: 2}
	buggy := sim.Run(MustGet("openldap").Build(cfg), sim.Config{Seed: 2})
	fixed := sim.Run(BuildOpenldapFixed(cfg), sim.Config{Seed: 2})
	if fixed.CPUTotal() >= buggy.CPUTotal() {
		t.Fatalf("barrier fix did not save CPU: %v vs %v", fixed.CPUTotal(), buggy.CPUTotal())
	}
	if fixed.SpinWaste != 0 {
		t.Fatalf("fixed variant still spins: %v", fixed.SpinWaste)
	}
}

func TestPbzip2FixSavesCPU(t *testing.T) {
	cfg := Config{Threads: 2, Scale: 0.25, Seed: 2}
	buggy := sim.Run(MustGet("pbzip2").Build(cfg), sim.Config{Seed: 2})
	fixed := sim.Run(BuildPbzip2Fixed(cfg), sim.Config{Seed: 2})
	if fixed.CPUTotal() >= buggy.CPUTotal() {
		t.Fatalf("signal/wait fix did not save CPU: %v vs %v", fixed.CPUTotal(), buggy.CPUTotal())
	}
	// Both variants compress every block exactly once.
	var outB, outF int64
	for a, name := range buggy.Trace.MemNames {
		if name == "OutputBuffer->tail" {
			outB = buggy.Trace.FinalMem[a]
		}
	}
	for a, name := range fixed.Trace.MemNames {
		if name == "OutputBuffer->tail" {
			outF = fixed.Trace.FinalMem[a]
		}
	}
	if outB != outF {
		t.Fatalf("fix changed the work done: tail %d vs %d", outB, outF)
	}
}

func TestMySQLFixReducesWaiting(t *testing.T) {
	cfg := Config{Threads: 4, Scale: 0.1, Seed: 2}
	buggy := sim.Run(MustGet("mysql").Build(cfg), sim.Config{Seed: 2})
	fixed := sim.Run(BuildMySQLFixed(cfg), sim.Config{Seed: 2})
	if fixed.Total >= buggy.Total {
		t.Fatalf("query-cache fix did not speed up the run: %v vs %v", fixed.Total, buggy.Total)
	}
}

func TestInputSizeStrings(t *testing.T) {
	if SimSmall.String() != "simsmall" || SimMedium.String() != "simmedium" || SimLarge.String() != "simlarge" {
		t.Fatal("InputSize strings wrong")
	}
	// The zero value defaults to simlarge.
	c := Config{Threads: 2}.withDefaults()
	if c.Input != SimLarge {
		t.Fatalf("default input = %v, want simlarge", c.Input)
	}
}

func TestMixRegionSitesSpread(t *testing.T) {
	// Multi-site regions must intern distinct code regions, so fusion can
	// produce multiple groups per lock.
	p := sim.NewProgram("sites")
	cfg := Config{Threads: 2, Scale: 1}.withDefaults()
	m := newMixRT(p, []Region{{
		Name: "r", File: "f.c", Line: 100, Pattern: PatRead,
		Iters: 8, CSLen: 50, Gap: 50, Sites: 3, ConflictEvery: 4,
	}}, cfg)
	if len(m.rts[0].sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(m.rts[0].sites))
	}
	seen := map[trace.SiteID]bool{}
	for _, s := range m.rts[0].sites {
		seen[s[0]] = true
	}
	if len(seen) != 3 {
		t.Fatal("lock sites not distinct")
	}
}
