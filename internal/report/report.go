// Package report renders the experiment harness's tables and series as
// aligned ASCII, in the shape of the paper's tables and figure data.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are appended under the table (scaling factors, caveats).
	Notes []string
}

// NewTable creates an empty table.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Series is one line of a figure: a label and (x, y) points.
type Series struct {
	Label  string
	Points []Point
}

// Point is one figure datum; Err is the error-bar half-width (σ).
type Point struct {
	X   string
	Y   float64
	Err float64
}

// Figure is a titled set of series — the textual equivalent of one paper
// figure.
type Figure struct {
	Title  string
	YLabel string
	Series []*Series
	Notes  []string
}

// NewFigure creates an empty figure.
func NewFigure(title, ylabel string) *Figure {
	return &Figure{Title: title, YLabel: ylabel}
}

// Add appends a series and returns it for point insertion.
func (f *Figure) Add(label string) *Series {
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// AddPoint appends a point to the series.
func (s *Series) AddPoint(x string, y, err float64) {
	s.Points = append(s.Points, Point{X: x, Y: y, Err: err})
}

// AddNote appends a footnote.
func (f *Figure) AddNote(format string, args ...interface{}) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// String renders the figure as a table of series rows.
func (f *Figure) String() string {
	t := NewTable(fmt.Sprintf("%s  (y: %s)", f.Title, f.YLabel), "series", "x", "y", "±σ")
	for _, s := range f.Series {
		for _, p := range s.Points {
			t.AddRow(s.Label, p.X, fmt.Sprintf("%.4g", p.Y), fmt.Sprintf("%.3g", p.Err))
		}
	}
	t.Notes = f.Notes
	return t.String()
}
