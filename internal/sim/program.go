// Package sim implements a deterministic discrete-event simulator of a
// multicore machine running a lock-based multithreaded program.
//
// It is the substrate that replaces the paper's Pin-instrumented native
// execution: workloads are written against a small instruction set
// (compute segments, lock/unlock, shared reads/writes, condition
// variables, barriers), the simulator advances per-thread virtual clocks,
// and a recorder turns the run into a trace.Trace. Because exactly one
// virtual thread executes at a time and every tie-break is seeded, a
// given (program, seed) pair always yields the identical trace — the
// determinism that the paper's record phase obtains from Pin.
package sim

import (
	"fmt"

	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
)

// CondID identifies a condition variable.
type CondID int32

// BarrierID identifies a barrier.
type BarrierID int32

// ThreadBody is the code of one simulated thread.
type ThreadBody func(t *Thread)

type lockDecl struct {
	name string
	spin bool // waiters burn CPU instead of blocking
}

type barrierDecl struct {
	name    string
	parties int
}

// Program is a simulated multithreaded application: shared memory, lock
// and condvar declarations, a site table naming the (pretend) source
// locations, and one body per thread.
type Program struct {
	// Name labels traces and reports.
	Name string
	// Mem is the shared address space.
	Mem *memmodel.Memory
	// Sites interns the program's code sites.
	Sites *trace.SiteTable

	bodies   []ThreadBody
	locks    []lockDecl
	conds    []string
	barriers []barrierDecl
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{
		Name:  name,
		Mem:   memmodel.New(),
		Sites: trace.NewSiteTable(),
	}
}

// AddThread appends a thread; threads are numbered in addition order.
func (p *Program) AddThread(body ThreadBody) int32 {
	p.bodies = append(p.bodies, body)
	return int32(len(p.bodies) - 1)
}

// NumThreads reports the thread count.
func (p *Program) NumThreads() int { return len(p.bodies) }

// NewLock declares a blocking mutex and returns its ID.
func (p *Program) NewLock(name string) trace.LockID {
	p.locks = append(p.locks, lockDecl{name: name})
	return trace.LockID(len(p.locks)) // IDs start at 1
}

// NewSpinLock declares a mutex whose waiters spin (burn CPU), as in the
// paper's openldap and mysql #37844 cases where waiting wastes CPU time.
func (p *Program) NewSpinLock(name string) trace.LockID {
	p.locks = append(p.locks, lockDecl{name: name, spin: true})
	return trace.LockID(len(p.locks))
}

// NewCond declares a condition variable.
func (p *Program) NewCond(name string) CondID {
	p.conds = append(p.conds, name)
	return CondID(len(p.conds)) // IDs start at 1
}

// NewBarrier declares a barrier for n parties.
func (p *Program) NewBarrier(name string, n int) BarrierID {
	p.barriers = append(p.barriers, barrierDecl{name: name, parties: n})
	return BarrierID(len(p.barriers))
}

// Site interns a (file, line, function) source location.
func (p *Program) Site(file string, line int, fn string) trace.SiteID {
	return p.Sites.Intern(trace.Site{File: file, Line: line, Func: fn})
}

func (p *Program) lockSpin(l trace.LockID) bool {
	i := int(l) - 1
	if i < 0 || i >= len(p.locks) {
		return false
	}
	return p.locks[i].spin
}

func (p *Program) checkLock(l trace.LockID) {
	if int(l) < 1 || int(l) > len(p.locks) {
		panic(fmt.Sprintf("sim: undeclared lock %v", l))
	}
}

func (p *Program) checkCond(c CondID) {
	if int(c) < 1 || int(c) > len(p.conds) {
		panic(fmt.Sprintf("sim: undeclared cond %d", c))
	}
}

func (p *Program) checkBarrier(b BarrierID) {
	if int(b) < 1 || int(b) > len(p.barriers) {
		panic(fmt.Sprintf("sim: undeclared barrier %d", b))
	}
}
