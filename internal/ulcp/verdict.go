package ulcp

import (
	"perfplay/internal/trace"
)

// VerdictTable is the cross-shard reversed-replay memo: one benign/TLCP
// verdict per conflicting region-pair class, shared by every shard of a
// trace — and cached by trace digest, locally and for peers to probe — so
// a region pair recurring under many locks pays the O(events) prefix walk
// once per trace instead of once per lock shard (the ROADMAP's measured
// 39 → 24 replays on openldap).
//
// A table is a deterministic function of (trace, critical sections,
// options): it is the memo produced by Identify's own sorted
// lock/thread walk under its per-trace replay budget. The same walk
// against the table (IdentifyWithVerdicts) observes exactly Identify's
// verdicts — including the RULE-1 early stops those verdicts imply — so
// it performs zero replays and reproduces Identify's report pair for
// pair, on whichever node ran it; so do the per-lock shards of
// IdentifyShardWithVerdicts, merged in sorted lock order.
type VerdictTable struct {
	// Verdicts maps pairKey → benign. Every class Identify's walk
	// replayed (or budget-defaulted) has an entry.
	Verdicts map[string]bool `json:"verdicts"`
	// Replays counts the reversed replays spent building the table.
	Replays int `json:"replays"`
}

// BuildVerdictTable runs one full identification pass over the trace —
// Identify's walk and budget semantics exactly — and returns both its
// verdict memo and the complete report the pass produced along the way.
// A caller without a table uses the report directly (the pass replaces,
// not precedes, its classification); a caller handed a cached table runs
// IdentifyWithVerdicts against it, which reproduces this report
// byte-for-byte. The reversed-replay budget is per trace.
//
// The table is also the unit of cross-job reuse: it depends only on
// (trace content, Options), so a daemon analyzing the same stored trace
// under different reporting flags can reuse a cached table and skip
// every replay (see the pipeline's digest-keyed table cache).
func BuildVerdictTable(tr *trace.Trace, css []*trace.CritSec, opts Options) (*VerdictTable, *Report) {
	id := newIdentifier(tr, css, opts, nil)
	rep := id.run()
	return &VerdictTable{Verdicts: id.benignMemo, Replays: rep.ReversedReplays}, rep
}
