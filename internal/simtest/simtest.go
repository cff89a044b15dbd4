// Package simtest generates recorded programs for property tests and
// fuzz targets, so that packages that cannot import each other's tests
// (replay, transform) draw their inputs from one generator. It is test
// support: only _test.go files may import it, and the product's line
// counts leave it out.
package simtest

import (
	"math/rand"

	"perfplay/internal/memmodel"
	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// Feature selects what a random program contains beyond critical
// sections.
type Feature uint8

const (
	// Barriers makes every thread meet the others at a barrier after
	// every third critical section.
	Barriers Feature = 1 << iota
	// Skips follows every other critical section with a selectively
	// recorded range (a KSkip event) that rewrites a cell of the thread's
	// own.
	Skips
	// Conds follows every fourth critical section with a timed wait on a
	// condition variable the thread signals or broadcasts after every
	// other one, so waits end both ways: woken and timed out.
	Conds
	// SpinLocks declares every other lock as a spin lock.
	SpinLocks
)

// RandomProgram records a random but deadlock-free program: every thread
// runs iters critical sections, holds at most one lock at a time, and
// reads or commutatively updates one of four shared cells inside each.
// The same arguments give the same recording.
func RandomProgram(seed int64, threads, locks, iters int, with Feature) *sim.Result {
	return sim.Run(Program(seed, threads, locks, iters, with), sim.Config{Seed: seed})
}

// Program builds the program RandomProgram records. A program runs once
// (running it changes its memory), so a test that records it twice
// builds it twice.
func Program(seed int64, threads, locks, iters int, with Feature) *sim.Program {
	p := sim.NewProgram("rand")
	rng := rand.New(rand.NewSource(seed))
	var ls []trace.LockID
	for i := 0; i < locks; i++ {
		if with&SpinLocks != 0 && i%2 == 1 {
			ls = append(ls, p.NewSpinLock("S"))
		} else {
			ls = append(ls, p.NewLock("L"))
		}
	}
	cells := p.Mem.AllocN("c", 4, 0)
	s := p.Site("rand.c", 1, "f")
	var own []memmodel.Addr
	if with&Skips != 0 {
		own = p.Mem.AllocN("own", threads, 0)
	}
	var bar sim.BarrierID
	if with&Barriers != 0 {
		bar = p.NewBarrier("B", threads)
	}
	var cond sim.CondID
	if with&Conds != 0 {
		cond = p.NewCond("C")
	}
	type step struct {
		gap, cs vtime.Duration
		lock    trace.LockID
		cell    int
		op      int
	}
	for i := 0; i < threads; i++ {
		i := i
		var steps []step
		for j := 0; j < iters; j++ {
			steps = append(steps, step{
				gap:  vtime.Duration(50 + rng.Intn(400)),
				cs:   vtime.Duration(50 + rng.Intn(300)),
				lock: ls[rng.Intn(len(ls))],
				cell: rng.Intn(len(cells)),
				op:   rng.Intn(3),
			})
		}
		p.AddThread(func(th *sim.Thread) {
			for j, st := range steps {
				th.Compute(st.gap)
				th.Lock(st.lock, s)
				switch st.op {
				case 0:
					th.Read(cells[st.cell], s)
				case 1:
					th.Add(cells[st.cell], 1, s)
				default:
					th.Read(cells[st.cell], s)
					th.Add(cells[st.cell], 2, s)
				}
				th.Compute(st.cs)
				th.Unlock(st.lock, s)
				if with&Skips != 0 && j%2 == 1 {
					th.SkipRange(st.gap, func(m *memmodel.Memory) { m.Store(own[i], int64(j+1)) })
				}
				if with&Barriers != 0 && j%3 == 2 {
					th.Barrier(bar, s)
				}
				if with&Conds != 0 {
					switch j % 4 {
					case 0:
						th.Signal(cond, s)
					case 2:
						th.Broadcast(cond, s)
					case 3:
						th.Lock(st.lock, s)
						th.TimedWait(cond, st.lock, 4*st.gap, s)
						th.Unlock(st.lock, s)
					}
				}
			}
		})
	}
	return p
}
