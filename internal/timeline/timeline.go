// Package timeline renders ASCII per-thread timelines of traces, the
// visual aid the paper's Figs. 4, 10 and 11 draw by hand: one row per
// thread, time flowing left to right, critical sections marked per lock.
package timeline

import (
	"fmt"
	"strings"

	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// Options controls rendering.
type Options struct {
	// Width is the number of character cells the full duration maps to
	// (default 80).
	Width int
	// From and To bound the rendered window; zero values select the whole
	// trace.
	From, To vtime.Time
}

// glyph returns the cell character for a lock: critical sections of the
// first nine locks draw as digits, later ones as '#', auxiliary locks as
// '@', compute as '-', waits/sleep as '.', idle as ' '.
func glyph(l trace.LockID) byte {
	if l.IsAux() {
		return '@'
	}
	if l >= 1 && l <= 9 {
		return byte('0' + l)
	}
	return '#'
}

// Render draws the trace. Each thread row samples its events into Width
// buckets; within a bucket, synchronization wins over shared access, which
// wins over compute.
func Render(tr *trace.Trace, opts Options) string {
	if opts.Width <= 0 {
		opts.Width = 80
	}
	from, to := opts.From, opts.To
	if to == 0 {
		to = vtime.Time(int64(tr.TotalTime))
	}
	if to <= from {
		return "(empty window)"
	}
	span := float64(to - from)
	cell := func(t vtime.Time) int {
		c := int(float64(t-from) / span * float64(opts.Width))
		if c < 0 {
			c = 0
		}
		if c >= opts.Width {
			c = opts.Width - 1
		}
		return c
	}
	rank := map[byte]int{' ': 0, '.': 1, '-': 2, 'r': 3, 'w': 3}

	rows := make([][]byte, tr.NumThreads)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", opts.Width))
	}
	put := func(row []byte, at int, ch byte) {
		cur := row[at]
		rc, ok := rank[cur]
		if !ok {
			rc = 4 // lock glyphs outrank everything
		}
		nc, ok := rank[ch]
		if !ok {
			nc = 4
		}
		if nc >= rc {
			row[at] = ch
		}
	}
	fill := func(row []byte, a, b int, ch byte) {
		for i := a; i <= b && i < len(row); i++ {
			put(row, i, ch)
		}
	}

	// Track open critical sections per thread to paint their spans.
	held := make([]map[trace.LockID]vtime.Time, tr.NumThreads)
	for i := range held {
		held[i] = make(map[trace.LockID]vtime.Time)
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Time < from || e.Time > to {
			continue
		}
		row := rows[e.Thread]
		switch e.Kind {
		case trace.KCompute:
			fill(row, cell(e.Time.Add(-e.Cost)), cell(e.Time), '-')
		case trace.KSleep:
			fill(row, cell(e.Time.Add(-e.Cost)), cell(e.Time), '.')
		case trace.KBarrier:
			put(row, cell(e.Time), '|')
		case trace.KRead:
			put(row, cell(e.Time), 'r')
		case trace.KWrite:
			put(row, cell(e.Time), 'w')
		case trace.KLockAcq, trace.KLocksetAcq:
			l := e.Lock
			if x := tr.Ext(e); e.Kind == trace.KLocksetAcq && len(x.Locks) > 0 {
				l = x.Locks[0]
			}
			held[e.Thread][l] = e.Time
		case trace.KLockRel, trace.KLocksetRel:
			l := e.Lock
			if x := tr.Ext(e); e.Kind == trace.KLocksetRel && len(x.Locks) > 0 {
				l = x.Locks[0]
			}
			if start, ok := held[e.Thread][l]; ok {
				fill(row, cell(start), cell(e.Time), glyph(l))
				delete(held[e.Thread], l)
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "timeline of %s: %v .. %v (%d cells)\n", tr.App, from, to, opts.Width)
	for t, row := range rows {
		fmt.Fprintf(&b, "T%-2d |%s|\n", t, string(row))
	}
	b.WriteString("legend: digits/#=critical section (per lock), @=lockset, r/w=shared access, -=compute, .=wait, |=barrier\n")
	return b.String()
}
