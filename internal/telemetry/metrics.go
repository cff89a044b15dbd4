// Package telemetry is perfplay's dependency-free observability core:
// a Prometheus-compatible metrics registry (counters, gauges and
// fixed-bucket histograms rendered in the text exposition format) and a
// lightweight distributed-tracing vocabulary (trace and span IDs, the
// Span a job's timeline is made of; perfplayd keeps each timeline on
// its job).
//
// The package deliberately imports nothing beyond the standard library
// so every internal package — pipeline, scheduler, corpus — can hang
// instruments on its hot seams without dragging a client library into
// the build. perfplayd owns the one Registry per process and serves it
// at GET /metrics, the one place each of its numbers is published.
//
// Instruments are cheap: counters and gauges are a single atomic word,
// histogram observations touch one bucket counter plus the sum. None of
// them branch on recorded values, which is what keeps instrumentation
// outside the determinism contract — a traced, metered run produces
// byte-identical reports to a bare one.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind string

// Family kinds, matching the Prometheus # TYPE vocabulary.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// validMetricName is the snake_case shape every registered family must
// have. Prefix and unit-suffix conventions are linted separately (see
// internal/promtext) so the registry itself stays reusable.
var validMetricName = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// validLabelName mirrors the Prometheus label grammar (sans the
// reserved __ prefix, which nothing here needs).
var validLabelName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// DurationBuckets are the default histogram buckets for second-valued
// durations: half a millisecond to a minute, roughly logarithmic —
// wide enough for queue waits and whole-pipeline stages alike.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// SizeBuckets are the default histogram buckets for byte sizes: 1 KiB
// to 1 GiB in powers of four.
var SizeBuckets = []float64{
	1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. The zero value is not usable; construct with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with a fixed label schema and one series
// per observed label-value combination.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only; sorted ascending

	fn func() float64 // callback gauges only

	mu     sync.Mutex
	series map[string]*series // key = joined label values
}

// series is one (family, label values) time series. value holds
// math.Float64bits for counters/gauges; histograms use buckets/sum/
// count instead.
type series struct {
	labelValues []string
	value       atomic.Uint64
	buckets     []atomic.Uint64 // one per bucket bound, cumulative at render
	sum         atomic.Uint64   // float64 bits
	count       atomic.Uint64
}

func (s *series) addFloat(dst *atomic.Uint64, v float64) {
	for {
		old := dst.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if dst.CompareAndSwap(old, next) {
			return
		}
	}
}

// register creates (or idempotently returns) a family. Registering the
// same name with a different kind, help or label schema panics —
// a programming error the process must not limp past, since the
// rendered exposition would be ambiguous.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validMetricName.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q (want snake_case)", name))
	}
	for _, l := range labels {
		if !validLabelName.MatchString(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	if kind == KindHistogram {
		if len(buckets) == 0 {
			buckets = DurationBuckets
		}
		if !sort.Float64sAreSorted(buckets) {
			panic(fmt.Sprintf("telemetry: unsorted buckets on %q", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("telemetry: conflicting re-registration of %q", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns (creating on first use) the series for one label-value
// tuple.
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			s.buckets = make([]atomic.Uint64, len(f.buckets))
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic (counters are
// monotone by contract — a decrease would silently corrupt every rate()
// computed over the series).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decrease")
	}
	c.s.addFloat(&c.s.value, v)
}

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.value.Load()) }

// Int reads the current total as an integer (counters here count
// discrete events).
func (c *Counter) Int() int64 { return int64(c.Value()) }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns the series for one label-value tuple, creating it on
// first use. Handles are cheap; hot paths may cache them.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// Histogram is a fixed-bucket distribution series.
type Histogram struct {
	f *family
	s *series
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, bound := range h.f.buckets {
		if v <= bound {
			h.s.buckets[i].Add(1)
			break
		}
	}
	h.s.count.Add(1)
	h.s.addFloat(&h.s.sum, v)
}

// Count reads how many samples have been observed.
func (h *Histogram) Count() int64 { return int64(h.s.count.Load()) }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// With returns the series for one label-value tuple.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.get(labelValues)}
}

// NewCounter registers (or returns) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return &Counter{s: f.get(nil)}
}

// NewCounterVec registers (or returns) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// NewGaugeFunc registers a callback gauge: fn is evaluated at render
// time, so values like queue depth or corpus bytes are always current
// at the instant of the scrape instead of as of the last update. fn
// must not call back into this registry.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, KindGauge, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fn = fn
}

// NewHistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, buckets)}
}

// FamilyNames lists every registered family name, sorted; perfplayd's
// metric catalog test checks them against docs/OBSERVABILITY.md.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FamilyKind reports a registered family's kind.
func (r *Registry) FamilyKind(name string) (Kind, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		return "", false
	}
	return f.kind, true
}

// WritePrometheus renders every family in the text exposition format:
// families sorted by name, each preceded by its # HELP and # TYPE
// lines, series sorted by label values, histograms expanded into
// cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		families = append(families, f)
	}
	r.mu.Unlock()
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })

	var b strings.Builder
	for _, f := range families {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	fn := f.fn
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	f.mu.Unlock()

	// A labeled family whose series haven't materialized yet (a vec no
	// code path has touched) renders nothing: emitting # HELP/# TYPE
	// with no samples trips strict scrapers and says nothing useful.
	if fn == nil && len(ss) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)

	if fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(fn()))
		return
	}
	sort.Slice(ss, func(i, j int) bool {
		return strings.Join(ss[i].labelValues, "\x00") < strings.Join(ss[j].labelValues, "\x00")
	})
	for _, s := range ss {
		switch f.kind {
		case KindHistogram:
			cum := uint64(0)
			for i, bound := range f.buckets {
				cum += s.buckets[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelValues, "le", formatValue(bound)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labelValues, "le", "+Inf"), s.count.Load())
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelString(f.labels, s.labelValues, "", ""), formatValue(math.Float64frombits(s.sum.Load())))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				labelString(f.labels, s.labelValues, "", ""), s.count.Load())
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name,
				labelString(f.labels, s.labelValues, "", ""),
				formatValue(math.Float64frombits(s.value.Load())))
		}
	}
}

// labelString renders {k="v",...}, optionally with one extra pair (the
// histogram "le" bound); empty for label-less series.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
