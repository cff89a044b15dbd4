// Package trace defines the execution-trace model at the heart of
// PerfPlay: events, code sites, critical sections, and trace containers,
// plus binary/JSON serialization and checkpoint support.
//
// A trace is what the paper's Pin-based recorder emits: the per-thread
// sequence of lock operations, shared-memory accesses and compute
// segments, each tagged with a code site so ULCPs can later be fused per
// code region (Sec. 4.1).
package trace

import (
	"fmt"
	"sync"
)

// SiteID indexes a code site in a trace's SiteTable. Zero is "unknown".
type SiteID int32

// NoSite marks events with no source attribution.
const NoSite SiteID = 0

// Site is a source-code location in the (simulated) application, in the
// same spirit as the file:line pairs Pin resolves from debug info.
type Site struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Func string `json:"func"`
}

// String renders the conventional file:line(func) form.
func (s Site) String() string {
	if s.Func == "" {
		return fmt.Sprintf("%s:%d", s.File, s.Line)
	}
	return fmt.Sprintf("%s:%d(%s)", s.File, s.Line, s.Func)
}

// SiteTable interns Sites and hands out stable SiteIDs. It is safe for
// concurrent use: simulated application threads run as real goroutines
// and may intern sites while recording (e.g. workloads that resolve
// sites inside their thread bodies).
type SiteTable struct {
	mu    sync.RWMutex
	sites []Site
	index map[Site]SiteID
}

// NewSiteTable returns an empty table; ID 0 is reserved for "unknown".
func NewSiteTable() *SiteTable {
	t := &SiteTable{index: make(map[Site]SiteID)}
	t.sites = append(t.sites, Site{File: "<unknown>"})
	return t
}

// Intern returns the ID for s, allocating one if needed.
func (t *SiteTable) Intern(s Site) SiteID {
	t.mu.RLock()
	id, ok := t.index[s]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.index[s]; ok { // lost the race to another interner
		return id
	}
	id = SiteID(len(t.sites))
	t.sites = append(t.sites, s)
	t.index[s] = id
	return id
}

// At returns the site for an ID; out-of-range IDs yield the unknown site.
func (t *SiteTable) At(id SiteID) Site {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || int(id) >= len(t.sites) {
		return t.sites[0]
	}
	return t.sites[id]
}

// Len reports the number of interned sites (including the unknown site).
func (t *SiteTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sites)
}

// All returns the table contents at the time of the call; callers must
// not mutate the slice. Entries are append-only, so the returned prefix
// stays valid even if other goroutines keep interning.
func (t *SiteTable) All() []Site {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sites
}

// rebuildIndex restores the intern map after deserialization.
func (t *SiteTable) rebuildIndex() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.index = make(map[Site]SiteID, len(t.sites))
	for i, s := range t.sites {
		t.index[s] = SiteID(i)
	}
}

// Region is a contiguous code region: a file plus an inclusive line span.
// Regions are the unit of ULCP fusion (Algorithm 2): the paper's ⊓
// (overlap test) and ⊔ (merge) become interval intersection and union,
// which also subsumes the nested-lock case.
type Region struct {
	File      string `json:"file"`
	StartLine int    `json:"start"`
	EndLine   int    `json:"end"`
}

// EmptyRegion reports whether the region covers no code.
func (r Region) Empty() bool { return r.File == "" }

// Overlaps implements Algorithm 2's ⊓: whether two regions share code.
func (r Region) Overlaps(o Region) bool {
	if r.Empty() || o.Empty() || r.File != o.File {
		return false
	}
	return r.StartLine <= o.EndLine && o.StartLine <= r.EndLine
}

// Merge implements Algorithm 2's ⊔: the conflated region spanning both.
// Merging regions from different files keeps the receiver (callers only
// merge overlapping regions, which are same-file by construction).
func (r Region) Merge(o Region) Region {
	if r.Empty() {
		return o
	}
	if o.Empty() || r.File != o.File {
		return r
	}
	out := r
	if o.StartLine < out.StartLine {
		out.StartLine = o.StartLine
	}
	if o.EndLine > out.EndLine {
		out.EndLine = o.EndLine
	}
	return out
}

// Extend grows the region to cover the site.
func (r Region) Extend(s Site) Region {
	if s.File == "" {
		return r
	}
	if r.Empty() {
		return Region{File: s.File, StartLine: s.Line, EndLine: s.Line}
	}
	if r.File != s.File {
		return r
	}
	if s.Line < r.StartLine {
		r.StartLine = s.Line
	}
	if s.Line > r.EndLine {
		r.EndLine = s.Line
	}
	return r
}

// String renders file:start-end.
func (r Region) String() string {
	if r.Empty() {
		return "<none>"
	}
	if r.StartLine == r.EndLine {
		return fmt.Sprintf("%s:%d", r.File, r.StartLine)
	}
	return fmt.Sprintf("%s:%d-%d", r.File, r.StartLine, r.EndLine)
}

// Less orders regions for stable report output.
func (r Region) Less(o Region) bool {
	if r.File != o.File {
		return r.File < o.File
	}
	if r.StartLine != o.StartLine {
		return r.StartLine < o.StartLine
	}
	return r.EndLine < o.EndLine
}
