package ulcp

import (
	"perfplay/internal/memmodel"
	"perfplay/internal/trace"
)

// The reversed replay used to pay O(events) twice per conflicting pair:
// prefixState re-walked the whole trace prefix, and execPairLocal
// full-copied the resulting image for each of the two orders. The
// identifier visits pairs in each lock's acquisition order, so the
// prefix points are (almost always) non-decreasing — one evolving
// memory image advanced incrementally between pairs serves every
// replay, and the two executions run against copy-on-write overlays of
// it instead of copies. The prefix walk is paid once per lock group,
// not once per pair.

// prefixSweeper maintains the recorded memory image at a moving event
// position. stateAt advances it forward incrementally; a request behind
// the current position (a new lock group restarting the scan) rebuilds
// from the initial image.
type prefixSweeper struct {
	tr  *trace.Trace
	pos int32
	mem map[memmodel.Addr]int64
	// rebuilds counts from-scratch restarts, for tests asserting the
	// sweep really is incremental.
	rebuilds int
}

func newPrefixSweeper(tr *trace.Trace) *prefixSweeper {
	s := &prefixSweeper{tr: tr}
	s.reset()
	return s
}

func (s *prefixSweeper) reset() {
	if s.mem == nil {
		s.mem = make(map[memmodel.Addr]int64, len(s.tr.InitMem)+16)
	} else {
		clear(s.mem)
	}
	for a, v := range s.tr.InitMem {
		s.mem[a] = v
	}
	s.pos = 0
	s.rebuilds++
}

// stateAt returns the memory image after every recorded write before
// the given event index. The returned map is the sweeper's own evolving
// state: callers must treat it as read-only and must not retain it
// across stateAt calls.
func (s *prefixSweeper) stateAt(before int32) map[memmodel.Addr]int64 {
	if before < s.pos {
		s.reset()
	}
	for ; s.pos < before; s.pos++ {
		e := &s.tr.Events[s.pos]
		switch e.Kind {
		case trace.KWrite:
			s.mem[e.Addr] = e.Op.Apply(s.mem[e.Addr], e.Value)
		case trace.KSkip:
			for a, v := range s.tr.Ext(e).Delta {
				s.mem[a] = v
			}
		}
	}
	return s.mem
}

// pairScratch is the reusable state for one identifier's reversed
// replays: the two outcome buffers and their read slices. One instance
// serves a whole identification run; nothing here escapes to the report.
type pairScratch struct {
	fwd, rev pairOutcome
	r1, r2   []int64
}

// execPairOverlay re-executes first's then second's shared accesses
// against base without copying it: out.writes doubles as a
// copy-on-write overlay, so reads consult it before base and writes
// (and skip deltas — the recorded effects of unrecorded execution,
// which the prefix walk applies and the pair execution therefore must
// too) land only in it. The reads slice is keyed by critical-section
// identity (c1's reads then c2's), matching execPairLocal.
func execPairOverlay(tr *trace.Trace, base map[memmodel.Addr]int64, first, second *trace.CritSec, out *pairOutcome, sc *pairScratch) {
	if out.writes == nil {
		out.writes = make(map[memmodel.Addr]int64, 8)
	} else {
		clear(out.writes)
	}
	load := func(a memmodel.Addr) int64 {
		if v, ok := out.writes[a]; ok {
			return v
		}
		return base[a]
	}
	sc.r1, sc.r2 = sc.r1[:0], sc.r2[:0]
	exec := func(cs *trace.CritSec, reads *[]int64) {
		for i := cs.AcqEv; i <= cs.RelEv; i++ {
			e := &tr.Events[i]
			if e.Thread != cs.Thread {
				continue
			}
			switch e.Kind {
			case trace.KRead:
				*reads = append(*reads, load(e.Addr))
			case trace.KWrite:
				out.writes[e.Addr] = e.Op.Apply(load(e.Addr), e.Value)
			case trace.KSkip:
				for a, v := range tr.Ext(e).Delta {
					out.writes[a] = v
				}
			}
		}
	}
	if first.AcqEv <= second.AcqEv {
		// first==c1: execute first, then second, logging into (r1, r2).
		exec(first, &sc.r1)
		exec(second, &sc.r2)
	} else {
		// Reversed call order (c2,c1): execute c2 first but log its reads
		// into the second slot so slots always mean (c1, c2).
		exec(first, &sc.r2)
		exec(second, &sc.r1)
	}
	out.reads = append(append(out.reads[:0], sc.r1...), sc.r2...)
}

func outcomesEqual(fwd, rev *pairOutcome) bool {
	if len(fwd.reads) != len(rev.reads) {
		return false
	}
	for i := range fwd.reads {
		if fwd.reads[i] != rev.reads[i] {
			return false
		}
	}
	if len(fwd.writes) != len(rev.writes) {
		return false
	}
	for a, v := range fwd.writes {
		if rev.writes[a] != v {
			return false
		}
	}
	return true
}

// reversedReplayEqual performs the reversed replay localized to the pair:
// it takes the recorded memory state at c1's acquisition, replays the
// two critical sections in both orders (c1;c2 and c2;c1), and reports
// whether both orders produce the same result — identical writes applied
// and identical values observed by every read. Localizing the reversal
// keeps the check deterministic: a whole-trace reversal would perturb
// unrelated lock races and misattribute their differences to the pair.
// The prefix comes from the identifier's forward sweep and the two
// orders execute against overlays, with all scratch reused across the
// run's pairs.
func (id *identifier) reversedReplayEqual(c1, c2 *trace.CritSec) bool {
	if id.sweep == nil {
		id.sweep = newPrefixSweeper(id.tr)
		id.scratch = &pairScratch{}
	}
	base := id.sweep.stateAt(c1.AcqEv)
	execPairOverlay(id.tr, base, c1, c2, &id.scratch.fwd, id.scratch)
	execPairOverlay(id.tr, base, c2, c1, &id.scratch.rev, id.scratch)
	return outcomesEqual(&id.scratch.fwd, &id.scratch.rev)
}

// pairKey identifies the memoization class of a conflicting pair: the
// two code regions plus the write-op signature of the conflicting
// addresses (id.sig, as classify left it), spelled per address as how
// each side touches it — r=read, then one letter per distinct write op
// (s/a/&/|) in first-seen order — each side ended by ':' and ';'. The
// signature matters because one code region can emit both commutative
// updates (benign) and order-sensitive stores (TLCP); a shared key would
// let one verdict shadow the other. The key is built into the
// identifier's reusable buffer — the returned bytes are valid until the
// next pairKey call — and pinned by test against an allocating
// reference, because it is the wire format of shipped and cached verdict
// tables.
func (id *identifier) pairKey(r1, r2 int32) []byte {
	id.keys++
	b := append(id.key[:0], id.regionKey[r1]...)
	b = append(b, id.regionKey[r2]...)
	for _, w := range id.sig {
		b = append(appendTouch(b, trace.Touch(w>>16)), ':')
		b = append(appendTouch(b, trace.Touch(w)), ';')
	}
	id.key = b
	return b
}

func appendTouch(b []byte, t trace.Touch) []byte {
	if t.Read() {
		b = append(b, 'r')
	}
	ops, n := t.Ops()
	for _, op := range ops[:n] {
		b = append(b, "sa&|"[op&3])
	}
	return b
}
