// Package tracediff profiles traces per code region and diffs two
// recordings — the "did my fix help, and where" complement to PerfPlay's
// prediction: record the buggy build, record the patched build, and
// compare lock-held and lock-wait time per code region.
package tracediff

import (
	"fmt"
	"sort"

	"perfplay/internal/replay"
	"perfplay/internal/report"
	"perfplay/internal/trace"
	"perfplay/internal/vtime"
)

// RegionStat aggregates one code region's locking behaviour.
type RegionStat struct {
	// Region is the code region (from the acquisition site).
	Region trace.Region
	// Lock names the most common lock acquired at this region.
	Lock trace.LockID
	// CSs counts dynamic critical sections.
	CSs int
	// Held is total virtual time spent inside the region's critical
	// sections.
	Held vtime.Duration
	// Waited is total time threads blocked (or spun) entering them.
	Waited vtime.Duration
}

// Profile replays the trace under ELSC and aggregates per-region stats.
func Profile(tr *trace.Trace) (map[string]*RegionStat, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("tracediff: %w", err)
	}
	res, err := replay.Run(tr, replay.Options{Sched: replay.ELSCS})
	if err != nil {
		return nil, fmt.Errorf("tracediff: %w", err)
	}
	out := make(map[string]*RegionStat)
	css := tr.ExtractCS()
	// Completion time of the event preceding each acquisition.
	prevEnd := make(map[int32]vtime.Time, len(css))
	for t, evs := range tr.PerThread() {
		_ = t
		var last int32 = -1
		for _, idx := range evs {
			if tr.Events[idx].Kind == trace.KLockAcq {
				if last >= 0 {
					prevEnd[idx] = res.EventEnd[last]
				}
			}
			last = idx
		}
	}
	for _, cs := range css {
		if cs.RelEv < 0 {
			continue
		}
		site := trace.Site{}
		if tr.Sites != nil {
			site = tr.Sites.At(tr.Events[cs.AcqEv].Site)
		}
		region := trace.Region{}.Extend(site)
		key := region.String()
		st, ok := out[key]
		if !ok {
			st = &RegionStat{Region: region, Lock: cs.Lock}
			out[key] = st
		}
		st.CSs++
		st.Held += res.EventEnd[cs.RelEv].Sub(res.EventEnd[cs.AcqEv])
		wait := res.EventStart[cs.AcqEv].Sub(prevEnd[cs.AcqEv])
		if wait > 0 {
			st.Waited += wait
		}
	}
	return out, nil
}

// Compare renders a table diffing two traces region by region: critical
// sections, held time and wait time, with deltas. Regions present in only
// one trace show on their own rows.
func Compare(labelA string, a *trace.Trace, labelB string, b *trace.Trace) (*report.Table, error) {
	pa, err := Profile(a)
	if err != nil {
		return nil, err
	}
	pb, err := Profile(b)
	if err != nil {
		return nil, err
	}
	keys := make(map[string]struct{}, len(pa)+len(pb))
	for k := range pa {
		keys[k] = struct{}{}
	}
	for k := range pb {
		keys[k] = struct{}{}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	t := report.NewTable(
		fmt.Sprintf("per-region lock profile: %s vs %s", labelA, labelB),
		"region", "CSs A→B", "held A→B", "wait A→B", "Δwait")
	var totWaitA, totWaitB vtime.Duration
	for _, k := range sorted {
		sa, sb := pa[k], pb[k]
		var csA, csB int
		var heldA, heldB, waitA, waitB vtime.Duration
		if sa != nil {
			csA, heldA, waitA = sa.CSs, sa.Held, sa.Waited
		}
		if sb != nil {
			csB, heldB, waitB = sb.CSs, sb.Held, sb.Waited
		}
		totWaitA += waitA
		totWaitB += waitB
		t.AddRow(k,
			fmt.Sprintf("%d→%d", csA, csB),
			fmt.Sprintf("%v→%v", heldA, heldB),
			fmt.Sprintf("%v→%v", waitA, waitB),
			fmt.Sprint(waitB-waitA))
	}
	t.AddNote("total wait: %v → %v (Δ %v); makespan: %v → %v",
		totWaitA, totWaitB, totWaitB-totWaitA, a.TotalTime, b.TotalTime)
	return t, nil
}
