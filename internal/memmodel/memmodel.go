// Package memmodel implements the simulated shared-memory substrate.
//
// The simulator exposes a flat address space of 64-bit cells. Workloads
// allocate named cells (so traces and reports can speak in terms of the
// variables the paper's examples use, e.g. "fil_system.unflushed_spaces"),
// and the recorder snapshots/diffs memory for selective recording.
package memmodel

import (
	"fmt"
	"sort"
)

// Addr identifies a shared memory cell.
type Addr uint32

// NoAddr is the zero Addr; cell 0 is never allocated.
const NoAddr Addr = 0

// Memory is a simulated shared address space.
//
// Memory is not internally synchronized: the simulator guarantees only one
// virtual thread executes at a time, so plain maps suffice and every
// access stays deterministic.
type Memory struct {
	cells map[Addr]int64
	names map[Addr]string
	byNam map[string]Addr
	next  Addr
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{
		cells: make(map[Addr]int64),
		names: make(map[Addr]string),
		byNam: make(map[string]Addr),
		next:  1,
	}
}

// Reset returns the address space to its freshly-constructed state,
// keeping the maps' capacity. Replay engines recycled through a pool
// use it instead of allocating a new Memory per run.
func (m *Memory) Reset() {
	clear(m.cells)
	clear(m.names)
	clear(m.byNam)
	m.next = 1
}

// Alloc reserves a fresh cell with the given debug name and initial value.
// Allocating the same name twice returns the existing cell (workload
// builders use this to share variables between thread bodies).
func (m *Memory) Alloc(name string, init int64) Addr {
	if a, ok := m.byNam[name]; ok {
		return a
	}
	a := m.next
	m.next++
	m.cells[a] = init
	m.names[a] = name
	m.byNam[name] = a
	return a
}

// AllocN reserves n consecutive anonymous cells (an "array") under a base
// name; element i is named base[i].
func (m *Memory) AllocN(base string, n int, init int64) []Addr {
	addrs := make([]Addr, n)
	for i := range addrs {
		addrs[i] = m.Alloc(fmt.Sprintf("%s[%d]", base, i), init)
	}
	return addrs
}

// Load returns the value of cell a. Loading an unallocated cell returns 0,
// mirroring zero-initialized memory.
func (m *Memory) Load(a Addr) int64 { return m.cells[a] }

// Store sets cell a to v.
func (m *Memory) Store(a Addr, v int64) { m.cells[a] = v }

// Name returns the debug name of a cell, or "addr#N" if anonymous.
func (m *Memory) Name(a Addr) string {
	if n, ok := m.names[a]; ok {
		return n
	}
	return fmt.Sprintf("addr#%d", a)
}

// Len reports how many cells are allocated.
func (m *Memory) Len() int { return len(m.cells) }

// Names returns the address → debug-name table; callers must not mutate.
func (m *Memory) Names() map[Addr]string { return m.names }

// Snapshot captures the full state of memory. Snapshots feed selective
// recording (record state before/after a skipped range) and the replay
// engine's final-state comparison used by the benign-ULCP reversed replay.
type Snapshot map[Addr]int64

// Snapshot returns a copy of the current cell values.
func (m *Memory) Snapshot() Snapshot {
	s := make(Snapshot, len(m.cells))
	for a, v := range m.cells {
		s[a] = v
	}
	return s
}

// Restore overwrites memory with the snapshot's contents. Cells absent
// from the snapshot are cleared to zero.
func (m *Memory) Restore(s Snapshot) {
	for a := range m.cells {
		m.cells[a] = 0
	}
	for a, v := range s {
		m.cells[a] = v
	}
}

// Equal reports whether two snapshots contain identical non-zero state.
func (s Snapshot) Equal(o Snapshot) bool {
	return len(s.Diff(o)) == 0
}

// Diff returns the addresses whose values differ between s and o, in
// ascending order. Zero-valued and absent cells compare equal.
func (s Snapshot) Diff(o Snapshot) []Addr {
	seen := make(map[Addr]struct{}, len(s)+len(o))
	var out []Addr
	for a, v := range s {
		seen[a] = struct{}{}
		if o[a] != v {
			out = append(out, a)
		}
	}
	for a, v := range o {
		if _, ok := seen[a]; ok {
			continue
		}
		if v != 0 {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Delta is the state change of a set of cells across a skipped range, the
// unit of selective recording: "record the changes of the states and
// values of memory before and after running a specific code range".
type Delta struct {
	Before Snapshot
	After  Snapshot
}

// Apply installs the post-state of the delta into memory, bypassing
// re-execution of the skipped range.
func (d Delta) Apply(m *Memory) {
	for a, v := range d.After {
		m.Store(a, v)
	}
}
