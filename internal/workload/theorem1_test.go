package workload_test

import (
	"testing"

	"perfplay/internal/pipeline"
	"perfplay/internal/workload"
)

// TestTheorem1HoldsForAllApps is the strongest end-to-end correctness
// assertion: for every modelled application, the ULCP-free transformation
// either preserves the observable semantics or explains the divergence
// with reported races (Theorem 1).
func TestTheorem1HoldsForAllApps(t *testing.T) {
	for _, app := range workload.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			res, err := pipeline.Run(pipeline.Request{
				App: app.Name, Threads: 2, Scale: 0.05, Seed: 11, VerifyTheorem1: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if th := res.Analysis.Theorem1; !th.Ok() {
				t.Fatalf("Theorem 1 violated:\n%s", th)
			}
		})
	}
}
