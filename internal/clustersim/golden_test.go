package clustersim

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current simulator")

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/clustersim -run Golden -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted:\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// TestReportsMatchGolden pins every scenario's seed-42 report, the
// text `perfplay sim -scenario X` prints. A change to the node model
// shows up here as a reviewable diff of the golden.
func TestReportsMatchGolden(t *testing.T) {
	for _, sc := range Scenarios() {
		checkGolden(t, "seed42-"+sc+".golden", MustRun(DefaultConfig(sc, 42)).String())
	}
}

// TestSweepMatchesGolden pins the full policy sweep, byte for byte the
// output of `perfplay sim -scenario all -sweep` (docs/POLICIES.md).
func TestSweepMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the full sweep is 504 runs")
	}
	var parts []string
	for _, sc := range Scenarios() {
		rs, err := Sweep(DefaultConfig(sc, 42))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, RenderSweep(sc, 42, rs))
	}
	checkGolden(t, "sweep-seed42.golden", strings.Join(parts, "\n"))
}
