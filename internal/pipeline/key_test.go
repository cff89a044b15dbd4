package pipeline

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"perfplay/internal/sim"
	"perfplay/internal/trace"
	"perfplay/internal/workload"
)

// TestCacheKeyNamesEverySetting changes each exported field of Request
// in turn. A field outside nonKey must change CacheKey, and, unless it
// is a reporting flag, tableKey too: a setting added without its key
// segment would let two jobs that compute different artifacts share a
// cache entry. A non-key field, and a reporting flag in tableKey, must
// leave the key alone.
func TestCacheKeyNamesEverySetting(t *testing.T) {
	// nonKey: the input handles (the key names the input by App or
	// TraceDigest), the two fields only bench/ sets, and TopK, which a
	// cache hit re-renders at.
	nonKey := []string{"Program", "Trace", "TraceLoader", "TraceBytes", "Workers", "TopK"}
	reporting := []string{"Schemes", "DetectRaces", "VerifyTheorem1"}
	base := Request{App: "mysql", Threads: 4, Scale: 0.25, Seed: 42, TopK: 3}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		changed := base
		v := reflect.ValueOf(&changed).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		default:
			if !slices.Contains(nonKey, f.Name) {
				t.Errorf("%s: a %v the test cannot vary; give it a key segment and a case here, or list it in nonKey", f.Name, f.Type)
			}
			continue
		}
		a, b := base.normalize(), changed.normalize()
		cacheMoved, tableMoved := a.CacheKey() != b.CacheKey(), tableKey(a) != tableKey(b)
		switch {
		case slices.Contains(nonKey, f.Name):
			if cacheMoved || tableMoved {
				t.Errorf("%s is declared outside the key, yet changing it moves the cache key (%v) or table key (%v)", f.Name, cacheMoved, tableMoved)
			}
		case !cacheMoved:
			t.Errorf("%s: changing it leaves CacheKey at %q", f.Name, a.CacheKey())
		case slices.Contains(reporting, f.Name) == tableMoved:
			t.Errorf("%s: reporting flag %v, yet tableKey moved = %v (%q)", f.Name, slices.Contains(reporting, f.Name), tableMoved, tableKey(a))
		}
	}
}

// TestRunRefusesUndeclaredKinds: a mysql recording (×0.05, seed 42) with
// one compute event's kind set to KInvalid, 200 or 0xff fails the record
// stage naming the event. The last is the replayer's private kind for a
// removed lock operation, which such an event used to replay as.
func TestRunRefusesUndeclaredKinds(t *testing.T) {
	p := workload.MustGet("mysql").Build(workload.Config{Threads: 4, Scale: 0.05, Seed: 42})
	rec := sim.Run(p, sim.Config{Seed: 42}).Trace
	i := slices.IndexFunc(rec.Events, func(e trace.Event) bool { return e.Kind == trace.KCompute })
	for _, k := range []trace.Kind{trace.KInvalid, 200, 0xff} {
		tr := *rec
		tr.Events = slices.Clone(rec.Events)
		tr.Events[i].Kind = k
		res, err := Run(Request{Trace: &tr})
		if err == nil {
			t.Fatalf("kind %v: a %d-byte report", k, len(res.Report))
		}
		if !strings.Contains(err.Error(), "kind") {
			t.Fatalf("kind %v: %v", k, err)
		}
	}
}
