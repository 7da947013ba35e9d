package obs

// SLO tracking: sliding-window latency and shed-rate summaries over the
// recent past, as opposed to the Registry's process-lifetime histograms.
// A five-minute p99 that a dashboard or the fleet status endpoint can
// quote must forget last hour's cold start; cumulative histograms never
// do. The window is a ring of fixed-bucket sub-windows ("slots"):
// observations land in the slot covering now, a summary merges the
// slots still inside the window, and rotation is O(1) per observation —
// a slot is reset lazily the first time its index is reused.
//
// Buckets are fixed (same layout discipline as the Registry), so slot
// merge — and fleet-level merge across nodes — is exact bucket-count
// addition; only the quantile estimate interpolates.

import (
	"math"
	"sort"
	"sync"
	"time"
)

// SLOOptions parameterises an SLO tracker. The zero value selects a
// five-minute window of ten slots over DurationBuckets.
type SLOOptions struct {
	// Window is the sliding-window length (default 5 minutes).
	Window time.Duration
	// Slots is the number of sub-windows the window is divided into;
	// more slots = smoother expiry, slightly more merge work (default 10).
	Slots int
	// Bounds are the histogram bucket upper bounds (default
	// DurationBuckets). Fixed per tracker; ascending after sort.
	Bounds []float64
	// Clock drives slot rotation (default System).
	Clock Clock
}

// LatencySummary is the per-key digest of one sliding-window histogram.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// SLOSummary is a point-in-time digest of the whole tracker.
type SLOSummary struct {
	WindowSeconds float64                   `json:"windowSeconds"`
	Doors         map[string]LatencySummary `json:"doors,omitempty"`
	Shards        map[string]LatencySummary `json:"shards,omitempty"`
	Shed          uint64                    `json:"shed"`
	Admitted      uint64                    `json:"admitted"`
	ShedRate      float64                   `json:"shedRate"`
}

// sloSlot is one sub-window of one tracked histogram.
type sloSlot struct {
	epoch  int64 // which slot-interval these counts belong to
	counts []uint64
	sum    float64
	count  uint64
}

// winHist is a sliding-window histogram: a ring of slots indexed by
// epoch modulo ring size.
type winHist struct {
	slots []sloSlot
}

// winCount is a sliding-window counter with the same rotation scheme.
type winCount struct {
	slots []struct {
		epoch int64
		n     uint64
	}
}

// SLO tracks sliding-window verdict latency per door and per shard plus
// the shed/admitted balance. All methods are safe on a nil receiver and
// for concurrent use.
type SLO struct {
	window  time.Duration
	slotDur time.Duration
	slots   int
	bounds  []float64
	clock   Clock

	mu       sync.Mutex
	doors    map[string]*winHist
	shards   map[string]*winHist
	shed     winCount
	admitted winCount
}

// NewSLO creates a tracker from opts (zero fields select defaults).
func NewSLO(opts SLOOptions) *SLO {
	if opts.Window <= 0 {
		opts.Window = 5 * time.Minute
	}
	if opts.Slots <= 0 {
		opts.Slots = 10
	}
	if len(opts.Bounds) == 0 {
		opts.Bounds = DurationBuckets
	}
	if opts.Clock == nil {
		opts.Clock = System
	}
	bounds := append([]float64(nil), opts.Bounds...)
	sort.Float64s(bounds)
	s := &SLO{
		window:  opts.Window,
		slotDur: opts.Window / time.Duration(opts.Slots),
		slots:   opts.Slots,
		bounds:  bounds,
		clock:   opts.Clock,
		doors:   make(map[string]*winHist),
		shards:  make(map[string]*winHist),
	}
	s.shed.slots = make([]struct {
		epoch int64
		n     uint64
	}, opts.Slots)
	s.admitted.slots = make([]struct {
		epoch int64
		n     uint64
	}, opts.Slots)
	return s
}

// epoch maps now onto a slot interval index.
func (s *SLO) epoch() int64 {
	return s.clock.Now().UnixNano() / int64(s.slotDur)
}

// hist returns (creating on first use) the windowed histogram for key.
// Caller holds s.mu.
func (s *SLO) hist(m map[string]*winHist, key string) *winHist {
	h := m[key]
	if h == nil {
		h = &winHist{slots: make([]sloSlot, s.slots)}
		for i := range h.slots {
			h.slots[i].counts = make([]uint64, len(s.bounds)+1)
			h.slots[i].epoch = -1
		}
		m[key] = h
	}
	return h
}

// observe lands one value in the slot covering the current epoch,
// lazily resetting a slot whose ring index was last used a full window
// ago. Caller holds s.mu.
func (s *SLO) observe(h *winHist, e int64, v float64) {
	slot := &h.slots[e%int64(s.slots)]
	if slot.epoch != e {
		for i := range slot.counts {
			slot.counts[i] = 0
		}
		slot.sum, slot.count = 0, 0
		slot.epoch = e
	}
	slot.counts[sort.SearchFloat64s(s.bounds, v)]++
	slot.sum += v
	slot.count++
}

// bump adds one to a windowed counter. Caller holds s.mu.
func (s *SLO) bump(c *winCount, e int64) {
	slot := &c.slots[e%int64(s.slots)]
	if slot.epoch != e {
		slot.n = 0
		slot.epoch = e
	}
	slot.n++
}

// ObserveDoor records one verdict latency (seconds) for a client door.
func (s *SLO) ObserveDoor(door string, seconds float64) {
	if s == nil {
		return
	}
	e := s.epoch()
	s.mu.Lock()
	s.observe(s.hist(s.doors, door), e, seconds)
	s.mu.Unlock()
}

// ObserveShard records one verdict latency (seconds) for a shard.
func (s *SLO) ObserveShard(shard string, seconds float64) {
	if s == nil {
		return
	}
	e := s.epoch()
	s.mu.Lock()
	s.observe(s.hist(s.shards, shard), e, seconds)
	s.mu.Unlock()
}

// RecordShed counts one submission rejected by admission control.
func (s *SLO) RecordShed() {
	if s == nil {
		return
	}
	e := s.epoch()
	s.mu.Lock()
	s.bump(&s.shed, e)
	s.mu.Unlock()
}

// RecordAdmitted counts one submission past admission control.
func (s *SLO) RecordAdmitted() {
	if s == nil {
		return
	}
	e := s.epoch()
	s.mu.Lock()
	s.bump(&s.admitted, e)
	s.mu.Unlock()
}

// merged folds the live slots of h (epoch within the window ending at
// e) into one cumulative histogram. Caller holds s.mu.
func (s *SLO) merged(h *winHist, e int64) (cumulative []uint64, count uint64) {
	cumulative = make([]uint64, len(s.bounds)+1)
	min := e - int64(s.slots) + 1
	for i := range h.slots {
		slot := &h.slots[i]
		if slot.epoch < min || slot.epoch > e {
			continue
		}
		for j, c := range slot.counts {
			cumulative[j] += c
		}
		count += slot.count
	}
	var acc uint64
	for i := range cumulative {
		acc += cumulative[i]
		cumulative[i] = acc
	}
	return cumulative, count
}

// total folds a windowed counter's live slots. Caller holds s.mu.
func (s *SLO) total(c *winCount, e int64) uint64 {
	var n uint64
	min := e - int64(s.slots) + 1
	for i := range c.slots {
		if c.slots[i].epoch >= min && c.slots[i].epoch <= e {
			n += c.slots[i].n
		}
	}
	return n
}

// Summary digests the current window: per-door and per-shard latency
// quantiles plus the shed rate. Returns the zero summary on nil.
func (s *SLO) Summary() SLOSummary {
	if s == nil {
		return SLOSummary{}
	}
	e := s.epoch()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SLOSummary{WindowSeconds: s.window.Seconds()}
	digest := func(m map[string]*winHist) map[string]LatencySummary {
		if len(m) == 0 {
			return nil
		}
		d := make(map[string]LatencySummary, len(m))
		for key, h := range m {
			cum, count := s.merged(h, e)
			d[key] = LatencySummary{
				Count: count,
				P50:   Quantile(s.bounds, cum, 0.50),
				P95:   Quantile(s.bounds, cum, 0.95),
				P99:   Quantile(s.bounds, cum, 0.99),
			}
		}
		return d
	}
	out.Doors = digest(s.doors)
	out.Shards = digest(s.shards)
	out.Shed = s.total(&s.shed, e)
	out.Admitted = s.total(&s.admitted, e)
	if t := out.Shed + out.Admitted; t > 0 {
		out.ShedRate = float64(out.Shed) / float64(t)
	}
	return out
}

// Quantile estimates the q-quantile (0 < q <= 1) of a fixed-bucket
// cumulative histogram by linear interpolation inside the landing
// bucket. bounds are the finite upper bounds; cumulative has
// len(bounds)+1 entries, the last being the +Inf bucket (== total
// count). An empty histogram estimates 0; a quantile landing in the
// +Inf bucket clamps to the largest finite bound (the estimate is a
// floor, not an invention of mass beyond the layout).
func Quantile(bounds []float64, cumulative []uint64, q float64) float64 {
	if len(cumulative) == 0 || len(bounds)+1 != len(cumulative) {
		return 0
	}
	total := cumulative[len(cumulative)-1]
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	i := sort.Search(len(cumulative), func(i int) bool {
		return float64(cumulative[i]) >= rank
	})
	if i >= len(bounds) {
		// +Inf bucket: clamp to the largest finite bound.
		if len(bounds) == 0 {
			return 0
		}
		return bounds[len(bounds)-1]
	}
	lo := 0.0
	var below uint64
	if i > 0 {
		lo = bounds[i-1]
		below = cumulative[i-1]
	}
	width := bounds[i] - lo
	inBucket := float64(cumulative[i] - below)
	if inBucket <= 0 || width <= 0 || math.IsInf(width, 0) {
		return bounds[i]
	}
	frac := (rank - float64(below)) / inBucket
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return lo + width*frac
}

// Register exposes the tracker on reg as gauges refreshed at scrape
// time: <prefix>_latency_seconds{door,q} and {q,shard} quantiles,
// <prefix>_shed_ratio and <prefix>_window_seconds. Quantile labels use
// the Prometheus convention (q="0.5"). No-op when either side is nil.
func (s *SLO) Register(reg *Registry, prefix string) {
	if s == nil || reg == nil || prefix == "" {
		return
	}
	latency := prefix + "_latency_seconds"
	reg.Gauge(prefix + "_window_seconds").Set(s.window.Seconds())
	reg.AddCollector(func(r *Registry) {
		sum := s.Summary()
		for door, ls := range sum.Doors {
			r.Gauge(L(latency, "door", door, "q", "0.5")).Set(ls.P50)
			r.Gauge(L(latency, "door", door, "q", "0.95")).Set(ls.P95)
			r.Gauge(L(latency, "door", door, "q", "0.99")).Set(ls.P99)
		}
		for shard, ls := range sum.Shards {
			r.Gauge(L(latency, "q", "0.5", "shard", shard)).Set(ls.P50)
			r.Gauge(L(latency, "q", "0.95", "shard", shard)).Set(ls.P95)
			r.Gauge(L(latency, "q", "0.99", "shard", shard)).Set(ls.P99)
		}
		r.Gauge(prefix + "_shed_ratio").Set(sum.ShedRate)
	})
}
