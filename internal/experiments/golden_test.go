package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden table file")

// TestGoldenTables pins the rendered Table 1 and Table 2 byte-for-byte.
// The golden predates the tables' move onto pipeline.Run / ulcp.Identify
// (they used to run their own stage glue with a per-lock replay
// budget), so it is also the proof that the move changed no paper
// number.
//
// Regenerate with: go test ./internal/experiments/ -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 42}
	got := Table1(cfg).String() + Table2(cfg).String()

	goldenPath := filepath.Join("testdata", "tables.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("tables drifted from %s (rerun with -update if intentional):\nwant:\n%s\ngot:\n%s",
			goldenPath, want, got)
	}
}
