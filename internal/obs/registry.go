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
type Counter struct{ v atomic.Uint64 }

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
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
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
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use. The first registration fixes the
// layout; later calls return the existing histogram regardless of buckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
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

// L renders a metric name with label pairs in the Prometheus text
// convention, sorting labels by key for determinism:
//
//	L("x_total", "stage", "speed") == `x_total{stage="speed"}`
func L(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
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
	for name, c := range r.counters {
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
