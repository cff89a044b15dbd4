package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("T", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b") // short row padded
	tb.AddNote("scaled by %.1f", 0.5)
	out := tb.String()
	for _, want := range []string{"T\n", "name", "alpha", "note: scaled by 0.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows + note
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want 6:\n%s", len(lines), out)
	}
	// Columns align: header and first row start the second column at the
	// same offset.
	h, r := lines[1], lines[3]
	if strings.Index(h, "value") != strings.Index(r, "1") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("F", "speed")
	s := f.Add("series-a")
	s.AddPoint("2", 1.5, 0.1)
	s.AddPoint("4", 2.5, 0.2)
	f.Add("series-b").AddPoint("2", 3, 0)
	f.AddNote("hello")
	out := f.String()
	for _, want := range []string{"F", "speed", "series-a", "series-b", "1.5", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
}
