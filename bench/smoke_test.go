package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs the whole benchmark — build, all four workloads
// untraced then traced, verification, run file, spans — on tiny inputs,
// then feeds the run file to -compare against itself.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the product binaries")
	}
	out := filepath.Join(t.TempDir(), "run.json")
	if code := run([]string{"--root", "..", "--smoke", "--seconds", "1", "--out", out}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs in the run file, want %d", len(f.Runs), 2*len(workloads))
	}
	for _, r := range f.Runs {
		want := sp.EndToEnd
		if r.Traced {
			want = sp.PerLayer
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(want) {
			t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d metrics=%d (want %d)",
				r.Workload, r.Traced, r.Correct, r.Failed, r.Attempted, len(r.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in unit %q, want %q", r.Workload, d.Name, m.Unit, d.Unit)
			}
		}
		if !r.Traced {
			for _, d := range want {
				if r.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", r.Workload, d.Name, r.Metrics[d.Name].Value)
				}
			}
			continue
		}
		if got := r.Metrics["pipeline.layers_to_run_ratio"].Value; got < 0.7 || got > 1.3 {
			t.Errorf("%s: layer spans sum to %.2f of the pipeline.Run span", r.Workload, got)
		}
		if _, err := os.Stat(filepath.Join("out", "spans-"+r.Workload+".json")); err != nil {
			t.Errorf("%s: %v", r.Workload, err)
		}
	}
	if code := run([]string{"--root", "..", "--compare", out, out}); code != 0 {
		t.Errorf("comparing a run file with itself exited %d", code)
	}

	// The contract's single-workload form, traced and untraced.
	for _, tr := range []string{"0", "1"} {
		if code := run([]string{"--root", "..", "--smoke", "--seconds", "1", "--workload", "daemon-reuse", "--seed", "7", "--trace", tr}); code != 0 {
			t.Errorf("single-workload run with --trace %s exited %d", tr, code)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--root", "..", "--workload", "no-such-workload"},
		{"--root", "..", "--compare", "only-one.json"},
		{"--root", "..", "--update-golden", "--seed", "7"},
		{"--root", t.TempDir()}, // no BENCHMARK.json, no source
		{"--no-such-flag"},
	} {
		if code := run(args); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}

// Same seed, same inputs; another seed, other inputs; and the committed
// golden file pins exactly the keys the golden seed's plans verify.
func TestPlansAreSeeded(t *testing.T) {
	g, err := loadGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, b, c := w.plan(goldenSeed, false), w.plan(goldenSeed, false), w.plan(7, false)
		if !reflect.DeepEqual(a.traces, b.traces) || !reflect.DeepEqual(a.warm, b.warm) {
			t.Errorf("%s: two plans of one seed differ", w.name)
		}
		if reflect.DeepEqual(a.traces, c.traces) {
			t.Errorf("%s: seeds 42 and 7 give the same traces", w.name)
		}
		for i := 0; i < 50; i++ {
			oa, _ := a.op(i)
			ob, _ := b.op(i)
			if oa != ob {
				t.Errorf("%s: op %d differs between two plans of one seed", w.name, i)
			}
		}
		keys := verifiedKeys(a, planKeys(a))
		if len(keys) != len(g[w.name]) {
			t.Errorf("%s: golden pins %d reports, the plan verifies %d", w.name, len(g[w.name]), len(keys))
		}
		for _, k := range keys {
			if _, ok := g[w.name][k]; !ok {
				t.Errorf("%s: golden file lacks %s", w.name, k)
			}
		}
	}
}

// The reuse plan's access pattern, replayed against a 128-entry LRU like
// the daemon's result cache, must hit on exactly the hot third of the
// ops from the first timed op on, for any seed.
func TestReusePatternHitShare(t *testing.T) {
	const capacity = 128
	w, _ := findWorkload("daemon-reuse")
	for _, seed := range []int64{goldenSeed, 7} {
		p := w.plan(seed, false)
		var lru []string // least recent first
		touch := func(k string) (hit bool) {
			for i, have := range lru {
				if have == k {
					lru = append(lru[:i], lru[i+1:]...)
					hit = true
					break
				}
			}
			lru = append(lru, k)
			if len(lru) > capacity {
				lru = lru[1:]
			}
			return hit
		}
		for _, o := range p.warm {
			touch(o.key())
		}
		for i := 0; i < 4*p.span; i++ {
			o, _ := p.op(i)
			if hit := touch(o.key()); hit != (i%3 == 0) {
				t.Fatalf("seed %d: op %d (%s): hit=%t", seed, i, o.key(), hit)
			}
		}
		if n := len(planKeys(p)); n <= capacity || p.hitShare != 1.0/3 {
			t.Errorf("seed %d: %d keys, hit share %v", seed, n, p.hitShare)
		}
	}
}

// A served report that differs from the reference, or from an earlier
// report for the same key, must count as failed ops.
func TestVerifyCountsMismatches(t *testing.T) {
	w, _ := findWorkload("cli-ulcp")
	p := w.plan(3, true)
	ins, err := generateAll(p.traces)
	if err != nil {
		t.Fatal(err)
	}
	st := &state{inputs: ins}
	ref, err := reference(ins[0], opSpec{}, true)
	if err != nil {
		t.Fatal(err)
	}

	ph := newPhase()
	if !ph.served(opSpec{}, []byte("not the report")) || !ph.served(opSpec{}, []byte("not the report")) {
		t.Fatal("consistent reports rejected")
	}
	if ph.served(opSpec{}, []byte("another report")) || ph.failed != 1 {
		t.Errorf("a report differing from the earlier one for its key was accepted (failed=%d)", ph.failed)
	}
	if err := verify(w, p, st, ph, nil); err != nil {
		t.Fatal(err)
	}
	if ph.failed != 3 { // 1 inconsistent + 2 ops that served the wrong bytes
		t.Errorf("failed = %d after verification, want 3", ph.failed)
	}

	good := newPhase()
	good.reports[opSpec{}.key()], good.perKey[opSpec{}.key()], good.specs[opSpec{}.key()] = ref.SHA256, 1, opSpec{}
	wrongPin := ref
	wrongPin.Events++
	if err := verify(w, p, st, good, map[string]pinned{opSpec{}.key(): wrongPin}); err != nil || good.failed != 1 {
		t.Errorf("a reference differing from its golden pin went unnoticed (failed=%d, err=%v)", good.failed, err)
	}
	if err := verify(w, p, st, good, map[string]pinned{opSpec{}.key(): ref}); err != nil || good.failed != 1 {
		t.Errorf("a matching pin was counted as a failure (failed=%d, err=%v)", good.failed, err)
	}
}
