package promtext

import (
	"strings"
	"testing"
)

func TestParseCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"sample before HELP":  "perfplay_x_total 1\n",
		"missing TYPE":        "# HELP perfplay_x_total x\nperfplay_x_total 1\n",
		"duplicate series":    "# HELP perfplay_x_total x\n# TYPE perfplay_x_total counter\nperfplay_x_total 1\nperfplay_x_total 2\n",
		"interleaved family":  "# HELP a_total a\n# TYPE a_total counter\nb_total 1\n",
		"bad value":           "# HELP a_total a\n# TYPE a_total counter\na_total abc\n",
		"reopened family":     "# HELP a_total a\n# TYPE a_total counter\na_total 1\n# HELP b b\n# TYPE b gauge\nb 1\n# HELP a_total a\n# TYPE a_total counter\na_total 2\n",
		"stray comment":       "# a comment\n",
		"type without help":   "# TYPE a_total counter\na_total 1\n",
		"unknown metric type": "# HELP a a\n# TYPE a zig\na 1\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: strict parse accepted:\n%s", name, in)
		}
	}
}

func TestLintCatchesViolations(t *testing.T) {
	fams := []Family{
		{Name: "requests_total", Type: "counter"},         // missing prefix
		{Name: "perfplay_requests", Type: "counter"},      // counter without _total
		{Name: "perfplay_wait", Type: "histogram"},        // histogram without unit
		{Name: "perfplay_depth_total", Type: "gauge"},     // gauge ending _total
		{Name: "perfplay_ok_total", Type: "counter"},      // conforming
		{Name: "perfplay_dur_seconds", Type: "histogram"}, // conforming
	}
	problems := Lint(fams, "perfplay_")
	if len(problems) != 4 {
		t.Fatalf("lint found %d problems, want 4: %v", len(problems), problems)
	}
}
