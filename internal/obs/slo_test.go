package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestSLO(clock Clock) *SLO {
	return NewSLO(SLOOptions{
		Window: time.Minute,
		Slots:  6,
		Bounds: []float64{0.01, 0.1, 1},
		Clock:  clock,
	})
}

func TestSLOSummaryQuantiles(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	s := newTestSLO(clock)
	// 90 fast (≤10ms bucket), 10 slow (≤1s bucket): p50 lands in the
	// first bucket, p99 in the third.
	for i := 0; i < 90; i++ {
		s.ObserveDoor("submit", 0.005)
	}
	for i := 0; i < 10; i++ {
		s.ObserveDoor("submit", 0.5)
	}
	sum := s.Summary()
	ls, ok := sum.Doors["submit"]
	if !ok {
		t.Fatal("door summary missing")
	}
	if ls.Count != 100 {
		t.Fatalf("count = %d, want 100", ls.Count)
	}
	if ls.P50 <= 0 || ls.P50 > 0.01 {
		t.Fatalf("p50 = %v, want within first bucket", ls.P50)
	}
	if ls.P99 <= 0.1 || ls.P99 > 1 {
		t.Fatalf("p99 = %v, want within third bucket", ls.P99)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	s := newTestSLO(clock)
	s.ObserveShard("n1-s0", 0.005)
	if got := s.Summary().Shards["n1-s0"].Count; got != 1 {
		t.Fatalf("fresh observation invisible: count = %d", got)
	}
	// Advance past the whole window: the observation must age out.
	clock.Advance(2 * time.Minute)
	if got := s.Summary().Shards["n1-s0"].Count; got != 0 {
		t.Fatalf("expired observation survived: count = %d", got)
	}
	// Partial expiry: one observation per slot, advance half a window.
	for i := 0; i < 6; i++ {
		s.ObserveShard("n1-s0", 0.005)
		clock.Advance(10 * time.Second) // one slot
	}
	got := s.Summary().Shards["n1-s0"].Count
	if got >= 6 || got == 0 {
		t.Fatalf("sliding window not sliding: count = %d", got)
	}
}

func TestSLOShedRate(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	s := newTestSLO(clock)
	for i := 0; i < 3; i++ {
		s.RecordShed()
	}
	for i := 0; i < 7; i++ {
		s.RecordAdmitted()
	}
	sum := s.Summary()
	if sum.Shed != 3 || sum.Admitted != 7 {
		t.Fatalf("shed/admitted = %d/%d, want 3/7", sum.Shed, sum.Admitted)
	}
	if math.Abs(sum.ShedRate-0.3) > 1e-9 {
		t.Fatalf("shed rate = %v, want 0.3", sum.ShedRate)
	}
	clock.Advance(2 * time.Minute)
	if s.Summary().ShedRate != 0 {
		t.Fatal("shed rate survived window expiry")
	}
}

func TestQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// 10 in (0,1], 10 in (1,2], 0 in (2,4], 5 in +Inf.
	cum := []uint64{10, 20, 20, 25}
	if q := Quantile(bounds, cum, 0.5); q <= 1 || q > 2 {
		t.Fatalf("p50 = %v, want in (1,2]", q)
	}
	// Landing in +Inf clamps to the largest finite bound.
	if q := Quantile(bounds, cum, 0.99); q != 4 {
		t.Fatalf("p99 = %v, want clamp to 4", q)
	}
	if q := Quantile(bounds, []uint64{0, 0, 0, 0}, 0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	if q := Quantile(nil, nil, 0.5); q != 0 {
		t.Fatalf("nil quantile = %v, want 0", q)
	}
	// Mismatched lengths are refused, not misread.
	if q := Quantile(bounds, []uint64{1, 2}, 0.5); q != 0 {
		t.Fatalf("mismatched quantile = %v, want 0", q)
	}
}

func TestSLONilSafe(t *testing.T) {
	var s *SLO
	s.ObserveDoor("submit", 1)
	s.ObserveShard("s0", 1)
	s.RecordShed()
	s.RecordAdmitted()
	s.Register(NewRegistry(nil), "x")
	if sum := s.Summary(); sum.Admitted != 0 || sum.Doors != nil {
		t.Fatalf("nil summary not zero: %+v", sum)
	}
}

func TestSLORegisterExposition(t *testing.T) {
	clock := NewFakeClock(time.Unix(1000, 0))
	s := newTestSLO(clock)
	reg := NewRegistry(clock)
	s.Register(reg, "alidrone_test_slo")
	s.ObserveDoor("submit", 0.005)
	s.ObserveShard("n1-s0", 0.05)
	s.RecordAdmitted()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`alidrone_test_slo_latency_seconds{door="submit",q="0.5"}`,
		`alidrone_test_slo_latency_seconds{q="0.99",shard="n1-s0"}`,
		"alidrone_test_slo_shed_ratio 0",
		"alidrone_test_slo_window_seconds 60",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSLOConcurrent(t *testing.T) {
	s := NewSLO(SLOOptions{Window: time.Second, Slots: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.ObserveDoor("submit", 0.001)
				s.ObserveShard("s0", 0.001)
				s.RecordAdmitted()
				_ = s.Summary()
			}
		}()
	}
	wg.Wait()
}
