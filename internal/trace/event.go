package trace

import (
	"fmt"

	"perfplay/internal/memmodel"
	"perfplay/internal/vtime"
)

// LockID identifies a lock object. Original application locks use small
// non-negative IDs; the transformation allocates auxiliary locks ("@L" in
// the paper, Fig. 8) from a separate high range so reports can tell them
// apart.
type LockID int32

// NoLock is the zero LockID; lock 0 is never allocated by workloads.
const NoLock LockID = 0

// AuxLockBase is the first LockID used for auxiliary locks introduced by
// RULE 3. Everything below it is an original application lock.
const AuxLockBase LockID = 1 << 20

// IsAux reports whether the lock is an auxiliary RULE-3 lock.
func (l LockID) IsAux() bool { return l >= AuxLockBase }

// String renders original locks as "L<n>" and auxiliary locks as "@L<n>",
// matching the paper's notation.
func (l LockID) String() string {
	if l.IsAux() {
		return fmt.Sprintf("@L%d", int32(l-AuxLockBase))
	}
	return fmt.Sprintf("L%d", int32(l))
}

// Kind discriminates trace events.
type Kind uint8

// Event kinds. The set is intentionally small: the paper records "all
// instructions and memory accesses between lock and unlock operations";
// everything else is summarized as compute segments (selective recording).
const (
	KInvalid Kind = iota
	// KThreadStart and KThreadEnd bracket a thread's timeline.
	KThreadStart
	KThreadEnd
	// KCompute is a program segment with a virtual cost and no shared
	// accesses (the SG segments of Theorem 1's model).
	KCompute
	// KLockAcq and KLockRel are acquisition/release of an original lock.
	KLockAcq
	KLockRel
	// KLocksetAcq and KLocksetRel acquire/release an auxiliary lockset;
	// only transform.Apply's test-and-bench-only traces carry them.
	KLocksetAcq
	KLocksetRel
	// KRead and KWrite are shared-memory accesses.
	KRead
	KWrite
	// KSleep advances time without consuming CPU (timed waits).
	KSleep
	// KSkip marks a selectively-recorded range: the replayer restores the
	// recorded memory delta instead of re-executing.
	KSkip
	// KBarrier is one thread's participation in a barrier episode: Lock
	// holds the barrier ID and Value the episode (generation) number. The
	// replayer releases an episode when all of its recorded participants
	// have arrived, so barrier waits are re-derived rather than baked in.
	KBarrier
)

var kindNames = [...]string{
	KInvalid:     "invalid",
	KThreadStart: "thread-start",
	KThreadEnd:   "thread-end",
	KCompute:     "compute",
	KLockAcq:     "lock",
	KLockRel:     "unlock",
	KLocksetAcq:  "lockset-acq",
	KLocksetRel:  "lockset-rel",
	KRead:        "read",
	KWrite:       "write",
	KSleep:       "sleep",
	KSkip:        "skip",
	KBarrier:     "barrier",
}

// recorded reports whether the recorder writes events of kind k: every
// declared kind but KInvalid and the lockset kinds. Nothing else is
// stored.
func (k Kind) recorded() bool {
	return k > KInvalid && k <= KBarrier && k != KLocksetAcq && k != KLocksetRel
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// WriteOp describes how a KWrite mutates its cell. Carrying the operation
// (not just the stored value) lets the replayer re-execute writes, which
// is what makes the reversed replay of Sec. 3.1 meaningful: commutative or
// redundant writes yield identical final state under either order (benign
// ULCP), order-sensitive ones do not (true contention).
type WriteOp uint8

const (
	// WSet stores Value.
	WSet WriteOp = iota
	// WAdd adds Value to the cell (commutative).
	WAdd
	// WAnd ands the cell with Value (disjoint bit manipulation).
	WAnd
	// WOr ors the cell with Value (disjoint bit manipulation).
	WOr
)

// Apply executes the write against a current cell value.
func (op WriteOp) Apply(cur, v int64) int64 {
	switch op {
	case WAdd:
		return cur + v
	case WAnd:
		return cur & v
	case WOr:
		return cur | v
	default:
		return v
	}
}

// String names the op.
func (op WriteOp) String() string {
	switch op {
	case WAdd:
		return "add"
	case WAnd:
		return "and"
	case WOr:
		return "or"
	default:
		return "set"
	}
}

// Event is one recorded step of one thread: a 48-byte row without
// pointers, so an event array is memory the collector never scans and a
// copy of it is a plain memmove.
//
// The meaning of the fields depends on Kind:
//
//	KCompute:     Cost
//	KLockAcq/Rel: Lock, Site, Cost (lock-op overhead), Spin (acq only)
//	KLocksetAcq:  Ext (Locks, Sources), Site, Cost
//	KLocksetRel:  Ext (Locks), Site, Cost
//	KRead:        Addr, Value (observed), Site, Cost
//	KWrite:       Addr, Value, Op, Site, Cost
//	KSleep:       Cost (the timeout)
//	KSkip:        Ext (Delta, the restored state), Cost (elapsed virtual time)
//
// Time is the completion timestamp from the recording run; replays compute
// their own times but use recorded times for ELSC ordering and RULE 2.
type Event struct {
	Thread int32
	Lock   LockID
	Addr   memmodel.Addr
	Site   SiteID
	Value  int64
	Cost   vtime.Duration
	Time   vtime.Time
	// Ext is the 1-based index of the event's entry in Trace.Exts, or 0:
	// most events have none. Read it through Trace.Ext.
	Ext  int32
	Kind Kind
	Op   WriteOp
	Spin bool
}

// EventExt holds the variable-length payloads only lockset and skip
// events carry, kept out of Event so that the row stays pointer-free.
type EventExt struct {
	// Locks are the members of a KLocksetAcq/KLocksetRel's lockset.
	Locks []LockID
	// Sources parallels Locks on KLocksetAcq events: Sources[i] is the
	// global event index of the release event of the source critical
	// section that contributed Locks[i], or -1 for the node's own lock.
	// The dynamic locking strategy (Fig. 9) consults it at replay time.
	Sources []int32
	// Delta holds the restored memory state for KSkip events.
	Delta memmodel.Snapshot
}

// empty reports whether the entry carries nothing an encoding would write.
func (x *EventExt) empty() bool { return len(x.Locks) == 0 && len(x.Sources) == 0 && len(x.Delta) == 0 }

// IsShared reports whether the event touches shared memory.
func (e *Event) IsShared() bool { return e.Kind == KRead || e.Kind == KWrite }

// String renders a compact human-readable form for debugging output.
func (e *Event) String() string {
	switch e.Kind {
	case KCompute:
		return fmt.Sprintf("T%d compute %v", e.Thread, e.Cost)
	case KLockAcq:
		return fmt.Sprintf("T%d lock %v", e.Thread, e.Lock)
	case KLockRel:
		return fmt.Sprintf("T%d unlock %v", e.Thread, e.Lock)
	case KRead:
		return fmt.Sprintf("T%d read a%d=%d", e.Thread, e.Addr, e.Value)
	case KWrite:
		return fmt.Sprintf("T%d write a%d %s %d", e.Thread, e.Addr, e.Op, e.Value)
	case KSleep:
		return fmt.Sprintf("T%d sleep %v", e.Thread, e.Cost)
	case KSkip:
		return fmt.Sprintf("T%d skip %v", e.Thread, e.Cost)
	default:
		return fmt.Sprintf("T%d %v", e.Thread, e.Kind)
	}
}
