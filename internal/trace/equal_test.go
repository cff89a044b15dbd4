package trace

import (
	"fmt"
	"reflect"
)

// tracesEqual compares two traces event by event: the fixed fields, and
// the contents of each event's extension rather than its index — the
// index says where in Exts the entry sits, which a transformed trace and
// its decoded copy order differently.
func tracesEqual(a, b *Trace) error {
	if len(a.Events) != len(b.Events) {
		return fmt.Errorf("%d events vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		xa, xb := a.Ext(&ea), b.Ext(&eb)
		ea.Ext, eb.Ext = 0, 0
		if ea != eb {
			return fmt.Errorf("event %d: %+v vs %+v", i, ea, eb)
		}
		if !reflect.DeepEqual(*xa, *xb) {
			return fmt.Errorf("event %d: extension %+v vs %+v", i, *xa, *xb)
		}
	}
	return nil
}

// sameTrace compares two decoded traces: the header and its tables, then
// the events as tracesEqual does.
func sameTrace(got, want *Trace) error {
	if got.App != want.App || got.NumThreads != want.NumThreads || got.TotalTime != want.TotalTime {
		return fmt.Errorf("header %q/%d/%v, reference %q/%d/%v", got.App, got.NumThreads, got.TotalTime, want.App, want.NumThreads, want.TotalTime)
	}
	for what, pair := range map[string][2]any{
		"sites": {got.Sites.All(), want.Sites.All()}, "memnames": {got.MemNames, want.MemNames},
		"spinlocks": {got.SpinLocks, want.SpinLocks}, "initmem": {got.InitMem, want.InitMem},
		"finalmem": {got.FinalMem, want.FinalMem}, "constraints": {got.Constraints, want.Constraints},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			return fmt.Errorf("%s: %v, reference %v", what, pair[0], pair[1])
		}
	}
	return tracesEqual(want, got)
}
