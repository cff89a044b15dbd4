package verify

import (
	"fmt"
	"reflect"
	"testing"

	"perfplay/internal/race"
	"perfplay/internal/replay"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/transform"
	"perfplay/internal/ulcp"
	"perfplay/internal/vtime"
	"perfplay/internal/workload"
)

// checkRef is the Theorem 1 check as it ran before it read the pipeline's
// replays: it replays the recording and the ULCP-free trace
// transform.Apply writes, both under ELSC, and compares them. Race
// attribution is the detector's over the plan, which
// TestDetectUnderPlanMatchesMaterialised holds against the materialised
// trace in internal/race.
func checkRef(orig *trace.Trace, tf *transform.Result, maxRaces int) (*Report, error) {
	o, err := replay.Run(orig, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		return nil, fmt.Errorf("verify: original replay: %w", err)
	}
	t, err := replay.Run(tf.Trace, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		return nil, fmt.Errorf("verify: transformed replay: %w", err)
	}
	rep := &Report{
		SameFinalState: t.FinalMem.Equal(o.FinalMem),
		SameReads:      t.ReadHash == o.ReadHash,
	}
	if o.Total > 0 {
		rep.Speedup = float64(t.Total) / float64(o.Total)
	}
	if rep.SameFinalState && rep.SameReads {
		rep.Verdict = SemanticsPreserved
		return rep, nil
	}
	order := race.OrderByStart(t.EventStart)
	rep.Races = race.Detect(orig, tf.Plan, order, maxRaces)
	if len(rep.Races) > 0 {
		rep.Verdict = RacesReported
	} else {
		rep.Verdict = Violated
	}
	return rep, nil
}

func requireSameReport(t testing.TB, what string, got, want *Report) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Check says\n%s\ncheckRef says\n%s", what, got, want)
	}
}

// requireCheckMatchesMaterialised holds Check over the pipeline's two
// replays against checkRef over Apply's trace, with the free replay's
// linearization passed in and built on demand. It returns the verdict.
func requireCheckMatchesMaterialised(t testing.TB, what string, tr *trace.Trace) Verdict {
	t.Helper()
	css := tr.ExtractCS()
	mat, err := transform.Apply(tr, css, ulcp.Identify(tr, css, ulcp.Options{}))
	if err != nil {
		t.Fatalf("%s: Apply: %v", what, err)
	}
	want, err := checkRef(tr, mat, 32)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	orig, free := replays(t, tr, mat.Plan)
	requireSameReport(t, what, Check(tr, mat.Plan, orig, free, nil, 32), want)
	requireSameReport(t, what+"/ordered", Check(tr, mat.Plan, orig, free, race.OrderByStart(free.EventStart), 32), want)
	return want.Verdict
}

// quickProgram is one of the twelve randomized programs
// TestTransformTheorem1Quick checks Theorem 1 on.
func quickProgram(seed int64) *trace.Trace {
	p := sim.NewProgram("q")
	var locks []trace.LockID
	for i := 0; i < 1+int(seed%3); i++ {
		locks = append(locks, p.NewLock("L"))
	}
	cells := p.Mem.AllocN("c", 3, 0)
	s := p.Site("q.c", 1, "f")
	for i := 0; i < 2+int(seed%2); i++ {
		p.AddThread(func(th *sim.Thread) {
			for j := 0; j < 7; j++ {
				th.Compute(vtime.Duration(40 + th.Intn(300)))
				l := locks[th.Intn(len(locks))]
				th.Lock(l, s)
				switch th.Intn(4) {
				case 0: // null
				case 1:
					th.Read(cells[th.Intn(len(cells))], s)
				case 2:
					th.Add(cells[th.Intn(len(cells))], 1, s)
				default:
					c := cells[th.Intn(len(cells))]
					th.Read(c, s)
					th.Add(c, 2, s)
				}
				th.Compute(vtime.Duration(30 + th.Intn(200)))
				th.Unlock(l, s)
			}
		})
	}
	return sim.Run(p, sim.Config{Seed: seed}).Trace
}

// TestCheckMatchesMaterialised is the check's oracle over every
// registered workload × threads {2,4} × seeds {7,42}, the ten appendix
// cases and the twelve randomized programs of TestTransformTheorem1Quick.
// Two of the randomized programs diverge, so both branches are compared.
func TestCheckMatchesMaterialised(t *testing.T) {
	verdicts := make(map[Verdict]int)
	check := func(what string, tr *trace.Trace) {
		verdicts[requireCheckMatchesMaterialised(t, what, tr)]++
	}
	for _, app := range workload.SortedNames() {
		for _, threads := range []int{2, 4} {
			for _, seed := range []int64{7, 42} {
				p := workload.MustGet(app).Build(workload.Config{Threads: threads, Scale: 0.05, Seed: seed})
				check(fmt.Sprintf("%s/threads=%d/seed=%d", app, threads, seed), sim.Run(p, sim.Config{Seed: seed}).Trace)
			}
		}
	}
	for n := 1; n <= 10; n++ {
		p, err := workload.BuildCase(n, workload.Config{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("case%d", n), sim.Run(p, sim.Config{Seed: 42}).Trace)
	}
	for seed := int64(0); seed < 12; seed++ {
		check(fmt.Sprintf("quick/%d", seed), quickProgram(seed))
	}
	if verdicts[Violated] > 0 || verdicts[SemanticsPreserved] == 0 || verdicts[RacesReported] == 0 {
		t.Fatalf("verdicts %v: want no violation and both other branches exercised", verdicts)
	}
}
