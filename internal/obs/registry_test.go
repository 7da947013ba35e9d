package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry(nil)
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Error("second lookup returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry(nil)
	g := r.Gauge("depth")
	g.Set(3)
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 4.5 {
		t.Errorf("gauge = %v, want 4.5", got)
	}
}

// TestHistogramBucketBoundaries pins the boundary semantics: an
// observation equal to an upper bound lands in that bucket (le is
// inclusive), just above it lands in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	tests := []struct {
		name string
		v    float64
		want []uint64 // cumulative counts per bucket incl. +Inf
	}{
		{"below first", 0.0005, []uint64{1, 1, 1, 1, 1}},
		{"exactly first bound", 0.001, []uint64{1, 1, 1, 1, 1}},
		{"just above first bound", 0.0011, []uint64{0, 1, 1, 1, 1}},
		{"exactly middle bound", 0.1, []uint64{0, 0, 1, 1, 1}},
		{"between bounds", 0.5, []uint64{0, 0, 0, 1, 1}},
		{"exactly last bound", 1, []uint64{0, 0, 0, 1, 1}},
		{"above last bound", 2, []uint64{0, 0, 0, 0, 1}},
		{"zero", 0, []uint64{1, 1, 1, 1, 1}},
		{"negative", -1, []uint64{1, 1, 1, 1, 1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry(nil)
			h := r.Histogram("h", bounds)
			h.Observe(tc.v)
			gotBounds, cum := h.Snapshot()
			if len(gotBounds) != len(bounds) {
				t.Fatalf("bounds = %v", gotBounds)
			}
			if len(cum) != len(tc.want) {
				t.Fatalf("cumulative = %v, want %v", cum, tc.want)
			}
			for i := range cum {
				if cum[i] != tc.want[i] {
					t.Errorf("bucket %d = %d, want %d (all: %v)", i, cum[i], tc.want[i], cum)
				}
			}
			if h.Count() != 1 {
				t.Errorf("count = %d", h.Count())
			}
			if h.Sum() != tc.v {
				t.Errorf("sum = %v, want %v", h.Sum(), tc.v)
			}
		})
	}
}

func TestHistogramUnsortedBucketsAreSorted(t *testing.T) {
	r := NewRegistry(nil)
	h := r.Histogram("h", []float64{1, 0.01, 0.1})
	h.Observe(0.05)
	bounds, cum := h.Snapshot()
	if bounds[0] != 0.01 || bounds[1] != 0.1 || bounds[2] != 1 {
		t.Fatalf("bounds not sorted: %v", bounds)
	}
	if cum[0] != 0 || cum[1] != 1 {
		t.Errorf("cumulative = %v", cum)
	}
}

// TestNilSafety: a nil registry and nil metric handles must be usable
// no-ops so instrumented code never guards call sites.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c", DurationBuckets).Observe(1)
	sp := r.StartSpan(r.Histogram("c", DurationBuckets))
	if d := sp.End(); d != 0 {
		t.Errorf("nil span elapsed = %v", d)
	}
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	if r.Clock() == nil {
		t.Error("nil registry clock is nil")
	}
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Add(1)
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram has observations")
	}
}

func TestSpanUsesRegistryClock(t *testing.T) {
	clock := NewFakeClock(time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC))
	r := NewRegistry(clock)
	h := r.Histogram("op_seconds", DurationBuckets)
	sp := r.StartSpan(h)
	clock.Advance(250 * time.Millisecond)
	if d := sp.End(); d != 250*time.Millisecond {
		t.Errorf("elapsed = %v", d)
	}
	if h.Count() != 1 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-0.25) > 1e-12 {
		t.Errorf("sum = %v", h.Sum())
	}
}

func TestLabelRendering(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{L("x_total"), "x_total"},
		{L("x_total", "stage", "speed"), `x_total{stage="speed"}`},
		// Labels sort by key regardless of argument order.
		{L("x", "b", "2", "a", "1"), `x{a="1",b="2"}`},
		// Values are escaped.
		{L("x", "p", `a"b\c`), `x{p="a\"b\\c"}`},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("L = %s, want %s", tc.got, tc.want)
		}
	}
}

// TestEscapeLabel: the shared escaper renders exactly what a fresh
// Replacer per call did, and L on plain values allocates only its result.
func TestEscapeLabel(t *testing.T) {
	fresh := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	for _, v := range []string{"", "plain", `back\slash`, `a"quote`, "new\nline", "\\\"\n\"\\", `\n`} {
		if got, want := escapeLabel(v), fresh.Replace(v); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", v, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = L("x_total", "path", "/v1/submit-poa") }); n != 1 {
		t.Errorf("L with one plain label: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = L("x_total", "result", "pass", "stage", "speed") }); n != 1 {
		t.Errorf("L with two plain labels: %v allocs, want 1", n)
	}
}

// TestResolvedSeriesPublishOnUse: a series resolved ahead of use stays
// out of the exposition until its first update, and a Series resolves a
// value outside its set on the call.
func TestResolvedSeriesPublishOnUse(t *testing.T) {
	r := NewRegistry(NewFakeClock(time.Unix(0, 0)))
	text := func() string {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	used := r.CounterSeries("ops_total", "op", "sign", "seal")
	lat := r.HistogramSeries("op_seconds", "op", []float64{1}, "sign", "seal")
	untouched := r.ResolveCounter("untouched_total")
	if got := text(); got != "" {
		t.Fatalf("resolved series published before use:\n%s", got)
	}
	used.With("sign").Inc()
	lat.With("sign").Observe(0.5)
	used.With("other").Inc() // outside the resolved set
	want := `# TYPE op_seconds histogram
op_seconds_bucket{op="sign",le="1"} 1
op_seconds_bucket{op="sign",le="+Inf"} 1
op_seconds_sum{op="sign"} 0.5
op_seconds_count{op="sign"} 1
# TYPE ops_total counter
ops_total{op="other"} 1
ops_total{op="sign"} 1
`
	if got := text(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if untouched.Value() != 0 || used.With("seal").Value() != 0 {
		t.Error("untouched series moved")
	}

	if n := testing.AllocsPerRun(100, func() { r.Counter("untouched_total").Inc(); r.Histogram("op_seconds", nil).Observe(1) }); n != 0 {
		t.Errorf("looking up existing series: %v allocs, want 0", n)
	}

	var none *Registry
	if c := none.CounterSeries("ops_total", "op", "sign").With("sign"); c != nil {
		t.Errorf("nil registry handed out %v", c)
	}
	if n := testing.AllocsPerRun(100, func() { none.CounterSeries("ops_total", "op").With("x").Inc() }); n != 0 {
		t.Errorf("nil-registry series: %v allocs, want 0", n)
	}
}

// TestWriteTextGolden pins the exposition format byte for byte.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry(NewFakeClock(time.Unix(0, 0)))
	r.Counter(L("reqs_total", "path", "/v1/submit-poa")).Add(3)
	r.Counter(L("reqs_total", "path", "/v1/zone-query")).Inc()
	r.Gauge("retained_poas").Set(2)
	h := r.Histogram(L("verify_seconds", "stage", "speed"), []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE reqs_total counter
reqs_total{path="/v1/submit-poa"} 3
reqs_total{path="/v1/zone-query"} 1
# TYPE retained_poas gauge
retained_poas 2
# TYPE verify_seconds histogram
verify_seconds_bucket{stage="speed",le="0.001"} 1
verify_seconds_bucket{stage="speed",le="0.01"} 2
verify_seconds_bucket{stage="speed",le="+Inf"} 3
verify_seconds_sum{stage="speed"} 0.5055
verify_seconds_count{stage="speed"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestConcurrentScrape races writers against scrapers; run under -race
// this is the concurrent-scrape regression test for the /metrics path.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry(nil)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter(L("c_total", "w", "x")).Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h_seconds", DurationBuckets).Observe(0.001)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				var b strings.Builder
				if err := r.WriteText(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(L("c_total", "w", "x")).Value(); got != 2000 {
		t.Errorf("counter = %d, want 2000", got)
	}
	if got := r.Histogram("h_seconds", DurationBuckets).Count(); got != 2000 {
		t.Errorf("histogram count = %d, want 2000", got)
	}
}

func TestClockFunc(t *testing.T) {
	t0 := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	var c Clock = ClockFunc(func() time.Time { return t0 })
	if !c.Now().Equal(t0) {
		t.Error("ClockFunc did not pass through")
	}
}

func TestFakeClock(t *testing.T) {
	t0 := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	c := NewFakeClock(t0)
	if !c.Now().Equal(t0) {
		t.Error("initial time wrong")
	}
	if got := c.Advance(time.Hour); !got.Equal(t0.Add(time.Hour)) {
		t.Errorf("advance = %v", got)
	}
	c.Set(t0)
	if !c.Now().Equal(t0) {
		t.Error("set did not take")
	}
}
