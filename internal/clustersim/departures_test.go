package clustersim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"perfplay/internal/jobs"
)

// TestDeparturesAreDeclared: every scenario's nodes run jobs.Defaults()
// but for exactly the knobs the departures table names, at the values
// it gives, and docs/POLICIES.md renders that table as it stands.
func TestDeparturesAreDeclared(t *testing.T) {
	def := reflect.ValueOf(jobs.Defaults())
	var knobs []string // every departing knob, in table order
	for _, d := range departures {
		if !slices.Contains(knobs, d.Knob) {
			knobs = append(knobs, d.Knob)
		}
	}
	var b strings.Builder
	b.WriteString("| scenario |")
	for _, k := range knobs {
		fmt.Fprintf(&b, " `%s` (%v) |", k, def.FieldByName(k))
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(knobs)) + "\n")

	for _, sc := range Scenarios() {
		want := map[string]any{}
		for _, d := range departures {
			if d.Scenario == "" || d.Scenario == sc {
				want[d.Knob] = d.Value
			}
		}
		p := reflect.ValueOf(DefaultConfig(sc, 42).Policy)
		got := map[string]any{}
		for i := range p.NumField() {
			if v := p.Field(i).Interface(); v != def.Field(i).Interface() {
				got[p.Type().Field(i).Name] = v
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s departs from jobs.Defaults() in %v, want exactly the declared %v", sc, got, want)
		}
		fmt.Fprintf(&b, "| %s |", sc)
		for _, k := range knobs {
			if v, ok := want[k]; ok {
				fmt.Fprintf(&b, " %v |", v)
			} else {
				b.WriteString(" — |")
			}
		}
		b.WriteString("\n")
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "POLICIES.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), b.String()) {
		t.Errorf("docs/POLICIES.md does not render the departures table; want:\n%s", b.String())
	}
}
