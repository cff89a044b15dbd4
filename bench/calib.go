package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The reference box is a 2-vCPU microVM on a shared host whose speed
// drifts by tens of percent over minutes: the same CLI op measured a
// 73 ms median and, half an hour later with nothing else running, a
// 110 ms one, and CPU time inflates too, though less. A fixed
// kernel run between ops tracks that drift closely (over five minutes
// the op's median per 20 s window ranged over 16 %, the op-to-kernel
// ratio over 4.8 %). So every time the benchmark reports is scaled to
// the speed at which the kernel takes referenceKernelMS: a run during
// a slow minute does not read as a regression, nor one during a fast
// minute as a gain. The raw values and the factor are reported beside
// the scaled ones.
const referenceKernelMS = 22.0

var kernelSink uint64

// kernel is a fixed piece of work that owes nothing to the product's
// code, so no change to the product can move it: map updates, slice
// growth, a sort, a pointer chase over freshly allocated nodes and a
// hash over a megabyte — compute and memory in roughly the mix the
// pipeline has.
func kernel() {
	const n = 60000
	m := make(map[uint64]uint64, 16)
	xs := make([]uint64, 0, 16)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[x%(n/2)] += x
		xs = append(xs, x)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	type node struct {
		next *node
		v    uint64
	}
	var head *node
	for _, v := range xs {
		head = &node{head, v}
	}
	s := uint64(0)
	for p := head; p != nil; p = p.next {
		s += p.v + m[p.v%(n/2)]
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(s >> (i % 8))
	}
	h := sha256.Sum256(buf)
	kernelSink += s + uint64(h[0])
}

// speed collects kernel timings taken while nothing else of the
// benchmark runs: the wall time of each, and the CPU time this process
// spent meanwhile. Contention for the core's shared resources stretches
// both; a descheduled vCPU stretches only the wall time. So times on the
// wall clock are brought to reference speed by the first and CPU times by
// the second.
type speed struct{ ms, cpuMS []float64 }

// sample times the kernel n times in a row and keeps the fastest: a
// daemon that has just been left alone may still be collecting garbage,
// which can only slow the kernel down.
func (s *speed) sample(n int) {
	runtime.LockOSThread() // threadCPU reads the clock of the thread it is called on
	defer runtime.UnlockOSThread()
	var wall, cpu float64
	for i := 0; i < n; i++ {
		c, t := threadCPU(), time.Now()
		kernel()
		w, c := ms(time.Since(t)), (threadCPU()-c)*1e3
		if i == 0 || w < wall {
			wall = w
		}
		if i == 0 || c < cpu {
			cpu = c
		}
	}
	s.ms, s.cpuMS = append(s.ms, wall), append(s.cpuMS, cpu)
}

// threadCPU is the calling thread's user+system CPU seconds so far.
func threadCPU() float64 {
	const rusageThread = 1 // RUSAGE_THREAD; package syscall does not name it
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// factor is how much slower (> 1) or faster (< 1) than the reference
// speed the box ran while the samples were taken, on the wall clock and
// in CPU time.
func (s *speed) factor() (wall, cpu float64) {
	return median(s.ms) / referenceKernelMS, median(s.cpuMS) / referenceKernelMS
}

// around is the same for the moment between samples i and i+1.
func (s *speed) around(i int) (wall, cpu float64) {
	return (s.ms[i] + s.ms[i+1]) / 2 / referenceKernelMS, (s.cpuMS[i] + s.cpuMS[i+1]) / 2 / referenceKernelMS
}

// timeUnit tells from a declared unit whether a per-layer metric is a
// time, to be divided by the speed factor; counts, bytes, shares and
// ratios of two times are left alone.
func timeUnit(u string) bool {
	switch u {
	case "s", "ms", "ns", "ms/kevent", "ns/event", "ns/pair", "ns/ulcp", "ns/MiB":
		return true
	}
	return false
}

// atReferenceSpeed divides the time metrics among values by the factor
// and returns the raw values it replaced, keyed "raw.<name>".
func atReferenceSpeed(decls []metricDecl, values map[string]float64, f float64) map[string]float64 {
	raw := map[string]float64{"bench.speed_factor": f}
	for _, d := range decls {
		v, ok := values[d.Name]
		if ok && timeUnit(d.Unit) {
			raw["raw."+d.Name], values[d.Name] = v, v/f
		}
	}
	return raw
}
