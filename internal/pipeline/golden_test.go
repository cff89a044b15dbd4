package pipeline

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden report files")

// TestGoldenReports pins the ranked ULCP reports for two fixture
// workloads byte-for-byte against committed goldens, so a change that
// alters the report (ranking tweaks, formatting drift, cost-model
// regressions) is always explicit in review.
//
// Regenerate with: go test ./internal/pipeline/ -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"pbzip2", Request{App: "pbzip2", Threads: 2, Scale: 0.2, Seed: 3, TopK: 5, Schemes: true}},
		{"mysql", Request{App: "mysql", Threads: 4, Scale: 0.2, Seed: 7, TopK: 5, DetectRaces: true}},
		// The race detector and the Theorem 1 check together; x264
		// reports a race.
		{"openldap-races-verify", Request{App: "openldap", Threads: 4, Scale: 0.2, Seed: 42, TopK: 5, DetectRaces: true, VerifyTheorem1: true}},
		{"x264-races-verify", Request{App: "x264", Threads: 4, Scale: 0.2, Seed: 42, TopK: 5, DetectRaces: true, VerifyTheorem1: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.req)
			if err != nil {
				t.Fatal(err)
			}

			goldenPath := filepath.Join("testdata", tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(res.Report), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report != string(want) {
				t.Fatalf("report drifted from %s (rerun with -update if intentional):\nwant:\n%s\ngot:\n%s",
					goldenPath, want, res.Report)
			}
		})
	}
}
