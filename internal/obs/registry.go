package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Standard bucket layouts. Fixed layouts keep series from different
// processes mergeable and make the exposition output deterministic.
var (
	// DurationBuckets covers the latency range the evaluation cares
	// about: from tens of microseconds (HMAC, geometry tests) through
	// seconds (full-PoA RSA verification on slow hardware).
	DurationBuckets = []float64{
		10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3,
		100e-3, 250e-3, 500e-3, 1, 2.5, 5, 10,
	}
	// CountBuckets covers discrete sizes: samples per zone crossing,
	// samples per PoA, retries per request.
	CountBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}
	// SyncBuckets covers commit-latency observations (WAL fsyncs): finer
	// than DurationBuckets below a millisecond, where the difference
	// between an SSD (~100 µs) and a spinning disk (~10 ms) lives.
	SyncBuckets = []float64{
		25e-6, 50e-6, 100e-6, 200e-6, 400e-6, 800e-6,
		1.6e-3, 3e-3, 6e-3, 12e-3, 25e-3, 50e-3, 100e-3, 250e-3, 1,
	}
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v       atomic.Uint64
	pending atomic.Bool // ResolveCounter: unpublished while zero
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increases the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	pending atomic.Bool // ResolveHistogram: unpublished while empty
	mu      sync.Mutex
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []uint64  // len(bounds)+1
	sum     float64
	count   uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Snapshot returns the bucket upper bounds and the cumulative count at or
// below each bound (the final entry is the +Inf bucket, equal to Count).
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// Registry holds the metrics of one process (or one server instance).
// The zero-value-adjacent nil registry is a valid no-op sink.
type Registry struct {
	clock Clock

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Registry)
}

// AddCollector registers a hook run at the start of every WriteText
// call, before any series is rendered — the place to refresh gauges
// that sample external state (see CollectRuntime). Hooks run outside
// the registry lock and must be safe for concurrent WriteText calls.
func (r *Registry) AddCollector(fn func(*Registry)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// NewRegistry creates a registry. clock feeds span timing and defaults to
// System when nil.
func NewRegistry(clock Clock) *Registry {
	if clock == nil {
		clock = System
	}
	return &Registry{
		clock:    clock,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Clock returns the registry's time source (System for a nil registry).
func (r *Registry) Clock() Clock {
	if r == nil {
		return System
	}
	return r.clock
}

// Counter returns the counter registered under name (with labels already
// rendered via L), creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.counter(name, false) }

// ResolveCounter is Counter for a component that resolves its series once,
// where it is built: a series it creates stays out of the exposition until
// its first update, so resolving every series a component might touch
// publishes only the ones it touches.
func (r *Registry) ResolveCounter(name string) *Counter { return r.counter(name, true) }

func (r *Registry) counter(name string, pending bool) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, func() *Counter {
		c := &Counter{}
		c.pending.Store(pending)
		return c
	})
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use. The first registration fixes the
// layout; later calls return the existing histogram regardless of buckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return r.histogram(name, buckets, false)
}

// ResolveHistogram is ResolveCounter for histograms.
func (r *Registry) ResolveHistogram(name string, buckets []float64) *Histogram {
	return r.histogram(name, buckets, true)
}

func (r *Registry) histogram(name string, buckets []float64, pending bool) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, func() *Histogram {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		h.pending.Store(pending)
		return h
	})
}

// lookup returns m[name], storing newMetric() there on first use.
func lookup[M any](r *Registry, m map[string]*M, name string, newMetric func() *M) *M {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = newMetric()
		m[name] = v
	}
	return v
}

// Span is an in-flight timed section. End observes the elapsed time into
// the histogram the span was started against.
type Span struct {
	clock Clock
	start time.Time
	h     *Histogram
}

// StartSpan begins timing against h using the registry clock. A span from
// a nil registry is a no-op.
func (r *Registry) StartSpan(h *Histogram) Span {
	if r == nil {
		return Span{}
	}
	return Span{clock: r.clock, start: r.clock.Now(), h: h}
}

// End stops the span, records the elapsed seconds, and returns the
// elapsed duration.
func (s Span) End() time.Duration {
	if s.clock == nil {
		return 0
	}
	d := s.clock.Now().Sub(s.start)
	s.h.Observe(d.Seconds())
	return d
}

// Series is a family's series keyed by one label's value, resolved once
// where a component is built, so an update costs a map lookup, not a
// rendered name. A value outside the resolved set is resolved on its call;
// a nil registry's Series hands out nil metrics, which record nothing.
type Series[M any] struct {
	byValue map[string]M
	resolve func(string) M
}

// With returns the series labelled value.
func (s Series[M]) With(value string) M {
	if m, ok := s.byValue[value]; ok || s.resolve == nil {
		return m
	}
	return s.resolve(value)
}

// CounterSeries resolves (ResolveCounter) name{key="v"} for each v in values.
func (r *Registry) CounterSeries(name, key string, values ...string) Series[*Counter] {
	return newSeries(r, values, func(v string) *Counter { return r.ResolveCounter(L(name, key, v)) })
}

// HistogramSeries is CounterSeries for histograms.
func (r *Registry) HistogramSeries(name, key string, buckets []float64, values ...string) Series[*Histogram] {
	return newSeries(r, values, func(v string) *Histogram { return r.ResolveHistogram(L(name, key, v), buckets) })
}

func newSeries[M any](r *Registry, values []string, resolve func(string) M) (s Series[M]) {
	if r != nil {
		s = Series[M]{byValue: make(map[string]M, len(values)), resolve: resolve}
		for _, v := range values {
			s.byValue[v] = resolve(v)
		}
	}
	return s
}

// L renders a metric name with label pairs in the Prometheus text
// convention, sorting labels by key for determinism:
//
//	L("x_total", "stage", "speed") == `x_total{stage="speed"}`
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		kv = append(kv[:len(kv):len(kv)], "")
	}
	n, sorted := len(name)+2, true
	for i := 0; i < len(kv); i += 2 {
		n += len(kv[i]) + len(kv[i+1]) + 4
		sorted = sorted && (i == 0 || kv[i-2] <= kv[i])
	}
	if !sorted { // metricslint keeps call sites sorted; order a copy
		kv = append([]string(nil), kv...)
		for i := 2; i < len(kv); i += 2 {
			for j := i; j > 0 && kv[j] < kv[j-2]; j -= 2 {
				kv[j-2], kv[j-1], kv[j], kv[j+1] = kv[j], kv[j+1], kv[j-2], kv[j-1]
			}
		}
	}
	var b strings.Builder
	b.Grow(n) // the whole name unless a value needs escaping
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value per the exposition format; a Replacer
// is safe for concurrent use, so one serves every call.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// splitSeries separates a rendered series name into its family (the bare
// metric name) and the label body (without braces, empty when unlabeled).
func splitSeries(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// WriteText renders all metrics in the Prometheus text exposition format
// (version 0.0.4). Output is fully deterministic: families and series are
// sorted lexicographically.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Run collector hooks before taking the read lock: hooks set gauges,
	// which themselves acquire the lock.
	r.mu.RLock()
	hooks := append([]func(*Registry){}, r.collectors...)
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn(r)
	}
	type series struct {
		name string
		line func(io.Writer) error
	}
	families := make(map[string]string) // family -> type
	var all []series

	r.mu.RLock()
	// A resolved series (ResolveCounter) is published by its first update.
	for name, c := range r.counters {
		if c.pending.Load() && c.Value() == 0 {
			continue
		}
		fam, _ := splitSeries(name)
		families[fam] = "counter"
		v := c.Value()
		n := name
		all = append(all, series{n, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%s %d\n", n, v)
			return err
		}})
	}
	for name, g := range r.gauges {
		fam, _ := splitSeries(name)
		families[fam] = "gauge"
		v := g.Value()
		n := name
		all = append(all, series{n, func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "%s %s\n", n, formatFloat(v))
			return err
		}})
	}
	for name, h := range r.hists {
		if h.pending.Load() && h.Count() == 0 {
			continue
		}
		fam, labels := splitSeries(name)
		families[fam] = "histogram"
		bounds, cum := h.Snapshot()
		sum, count := h.Sum(), h.Count()
		n, f, l := name, fam, labels
		all = append(all, series{n, func(w io.Writer) error {
			for i, b := range bounds {
				if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f+"_bucket", l, "le", formatFloat(b)), cum[i]); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesName(f+"_bucket", l, "le", "+Inf"), cum[len(cum)-1]); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", seriesName(f+"_sum", l), formatFloat(sum)); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f+"_count", l), count)
			return err
		}})
	}
	r.mu.RUnlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	written := make(map[string]bool)
	for _, s := range all {
		fam, _ := splitSeries(s.name)
		if !written[fam] {
			written[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, families[fam]); err != nil {
				return err
			}
		}
		if err := s.line(w); err != nil {
			return err
		}
	}
	return nil
}

// seriesName assembles "family{labels,extraK="extraV"}" handling the
// empty-label and no-extra cases.
func seriesName(family, labels string, extra ...string) string {
	body := labels
	for i := 0; i+1 < len(extra); i += 2 {
		if body != "" {
			body += ","
		}
		body += extra[i] + `="` + extra[i+1] + `"`
	}
	if body == "" {
		return family
	}
	return family + "{" + body + "}"
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
