package timeline

import (
	"strings"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
)

func sample() *trace.Trace {
	p := sim.NewProgram("tl")
	l := p.NewLock("L")
	x := p.Mem.Alloc("x", 0)
	s := p.Site("t.c", 1, "f")
	for i := 0; i < 2; i++ {
		p.AddThread(func(th *sim.Thread) {
			th.Compute(500)
			th.Lock(l, s)
			th.Add(x, 1, s)
			th.Compute(800)
			th.Unlock(l, s)
			th.Compute(300)
		})
	}
	return sim.Run(p, sim.Config{Seed: 1}).Trace
}

func TestRenderBasics(t *testing.T) {
	tr := sample()
	out := Render(tr, Options{Width: 60})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// header + 2 thread rows + legend
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "T0 ") || !strings.HasPrefix(lines[2], "T1 ") {
		t.Fatalf("thread rows malformed:\n%s", out)
	}
	// The critical section of lock 1 appears as '1' in both rows.
	if !strings.Contains(lines[1], "1") || !strings.Contains(lines[2], "1") {
		t.Fatalf("critical sections not drawn:\n%s", out)
	}
	// Compute segments appear as '-'.
	if !strings.Contains(lines[1], "-") {
		t.Fatalf("compute not drawn:\n%s", out)
	}
	// Rows fit the requested width (plus the frame).
	row := lines[1][strings.Index(lines[1], "|")+1 : strings.LastIndex(lines[1], "|")]
	if len(row) != 60 {
		t.Fatalf("row width = %d, want 60", len(row))
	}
}

func TestRenderSerializationVisible(t *testing.T) {
	// Under one contended lock, T1's critical section must start after
	// T0's: its '1' cells begin strictly later.
	tr := sample()
	out := Render(tr, Options{Width: 80})
	lines := strings.Split(out, "\n")
	first := func(s string) int { return strings.IndexByte(s, '1') }
	a, b := first(lines[1]), first(lines[2])
	if a < 0 || b < 0 {
		t.Fatalf("missing CS glyphs:\n%s", out)
	}
	if a == b {
		t.Fatalf("contended critical sections start in the same cell:\n%s", out)
	}
}

func TestRenderWindow(t *testing.T) {
	tr := sample()
	if got := Render(tr, Options{From: 100, To: 100}); got != "(empty window)" {
		t.Fatalf("empty window = %q", got)
	}
	out := Render(tr, Options{Width: 20, From: 0, To: 400})
	if !strings.Contains(out, "0t .. 400t") {
		t.Fatalf("window header missing:\n%s", out)
	}
}

func TestRenderAuxLocks(t *testing.T) {
	tr := trace.New("aux", 1)
	aux := trace.AuxLockBase + 1
	tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetAcq, Time: 10}, trace.EventExt{Locks: []trace.LockID{aux}})
	tr.Append(trace.Event{Thread: 0, Kind: trace.KCompute, Cost: 80, Time: 90})
	tr.AppendExt(trace.Event{Thread: 0, Kind: trace.KLocksetRel, Time: 100}, trace.EventExt{Locks: []trace.LockID{aux}})
	tr.TotalTime = 100
	out := Render(tr, Options{Width: 20})
	if !strings.Contains(out, "@") {
		t.Fatalf("lockset section not drawn as '@':\n%s", out)
	}
}

func TestGlyphs(t *testing.T) {
	if glyph(3) != '3' {
		t.Error("lock 3 glyph")
	}
	if glyph(12) != '#' {
		t.Error("high lock glyph")
	}
	if glyph(trace.AuxLockBase+5) != '@' {
		t.Error("aux glyph")
	}
}
