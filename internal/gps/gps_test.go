package gps

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

var t0 = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

// linePath moves at constant speed along a fixed bearing — a minimal Path
// for driver/receiver tests.
type linePath struct {
	origin  geo.LatLon
	bearing float64
	speed   float64 // m/s
	start   time.Time
	dur     time.Duration
	alt     float64
}

func (p linePath) Start() time.Time { return p.start }
func (p linePath) End() time.Time   { return p.start.Add(p.dur) }

func (p linePath) Position(at time.Time) Fix {
	dt := at.Sub(p.start).Seconds()
	if dt < 0 {
		dt = 0
	}
	if max := p.dur.Seconds(); dt > max {
		dt = max
	}
	return Fix{
		Pos:       p.origin.Offset(p.bearing, p.speed*dt),
		AltMeters: p.alt,
		SpeedMS:   p.speed,
		CourseDeg: p.bearing,
		Time:      at,
	}
}

func testPath() linePath {
	return linePath{
		origin:  geo.LatLon{Lat: 40.1106, Lon: -88.2073},
		bearing: 90,
		speed:   10,
		start:   t0,
		dur:     10 * time.Minute,
		alt:     50,
	}
}

func TestNewReceiverRateValidation(t *testing.T) {
	p := testPath()
	for _, rate := range []float64{0.5, 0, -1, 5.01, 100} {
		if _, err := NewReceiver(p, rate); !errors.Is(err, ErrBadRate) {
			t.Errorf("rate %v: err = %v, want ErrBadRate", rate, err)
		}
	}
	for _, rate := range []float64{1, 2, 3, 5} {
		if _, err := NewReceiver(p, rate); err != nil {
			t.Errorf("rate %v: unexpected err %v", rate, err)
		}
	}
}

func TestLatestFixTickAlignment(t *testing.T) {
	rx, err := NewReceiver(testPath(), 5)
	if err != nil {
		t.Fatal(err)
	}

	// At t0+0.3 s the latest 5 Hz tick is t0+0.2 s.
	fix, err := rx.LatestFix(t0.Add(300 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if got := fix.Time.Sub(t0); got != 200*time.Millisecond {
		t.Errorf("fix tick = %v, want 200ms", got)
	}

	// Exactly on a tick returns that tick.
	fix, err = rx.LatestFix(t0.Add(400 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if got := fix.Time.Sub(t0); got != 400*time.Millisecond {
		t.Errorf("fix tick = %v, want 400ms", got)
	}
}

func TestLatestFixBeforeStart(t *testing.T) {
	rx, err := NewReceiver(testPath(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.LatestFix(t0.Add(-time.Second)); !errors.Is(err, ErrNoFixYet) {
		t.Errorf("err = %v, want ErrNoFixYet", err)
	}
}

func TestMissedUpdates(t *testing.T) {
	// Miss tick 2 (t0+0.4 s at 5 Hz): a query at 0.45 s must fall back to
	// tick 1 (0.2 s).
	rx, err := NewReceiver(testPath(), 5, WithMissedUpdates(2))
	if err != nil {
		t.Fatal(err)
	}
	fix, err := rx.LatestFix(t0.Add(450 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if got := fix.Time.Sub(t0); got != 200*time.Millisecond {
		t.Errorf("fix tick = %v, want 200ms (tick 2 missed)", got)
	}

	// NextUpdateAfter must skip the missed tick too.
	next := rx.NextUpdateAfter(t0.Add(200 * time.Millisecond))
	if got := next.Sub(t0); got != 600*time.Millisecond {
		t.Errorf("next update = %v, want 600ms", got)
	}
}

func TestNextUpdateAfter(t *testing.T) {
	rx, err := NewReceiver(testPath(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		at   time.Duration
		want time.Duration
	}{
		{-time.Second, 0},
		{0, 200 * time.Millisecond},
		{100 * time.Millisecond, 200 * time.Millisecond},
		{200 * time.Millisecond, 400 * time.Millisecond},
		{399 * time.Millisecond, 400 * time.Millisecond},
	}
	for _, tt := range tests {
		if got := rx.NextUpdateAfter(t0.Add(tt.at)).Sub(t0); got != tt.want {
			t.Errorf("NextUpdateAfter(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestReceiverClampsAtPathEnd(t *testing.T) {
	p := testPath()
	rx, err := NewReceiver(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := p.End().Add(time.Hour)
	fix, err := rx.LatestFix(after)
	if err != nil {
		t.Fatal(err)
	}
	endPos := p.Position(p.End()).Pos
	if d := geo.HaversineMeters(fix.Pos, endPos); d > 1 {
		t.Errorf("fix after path end is %v m from final position", d)
	}
}

func TestDriverRoundTrip(t *testing.T) {
	p := testPath()
	rx, err := NewReceiver(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(rx)

	at := t0.Add(90 * time.Second)
	fix, err := d.GetGPS(at)
	if err != nil {
		t.Fatal(err)
	}
	truth := p.Position(t0.Add(90 * time.Second))
	// NMEA quantises to ~0.2 m; allow 1 m.
	if dist := geo.HaversineMeters(fix.Pos, truth.Pos); dist > 1 {
		t.Errorf("driver fix %v m away from ground truth", dist)
	}
	if math.Abs(fix.SpeedMS-10) > 0.01 {
		t.Errorf("speed = %v, want 10", fix.SpeedMS)
	}
	if fix.Time.Sub(t0) != 90*time.Second {
		t.Errorf("fix time = %v", fix.Time)
	}
}

func TestDriver3D(t *testing.T) {
	rx, err := NewReceiver(testPath(), 5)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(rx)
	fix, err := d.GetGPS3D(t0.Add(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fix.AltMeters-50) > 0.1 {
		t.Errorf("altitude = %v, want 50", fix.AltMeters)
	}
}

func TestDriverNoFix(t *testing.T) {
	rx, err := NewReceiver(testPath(), 5)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDriver(rx)
	if _, err := d.GetGPS(t0.Add(-time.Minute)); !errors.Is(err, ErrNoFixYet) {
		t.Errorf("err = %v, want ErrNoFixYet", err)
	}
	if _, err := d.GetGPS3D(t0.Add(-time.Minute)); !errors.Is(err, ErrNoFixYet) {
		t.Errorf("3d err = %v, want ErrNoFixYet", err)
	}
}

func TestNoiseInjection(t *testing.T) {
	p := testPath()
	rng := rand.New(rand.NewSource(21))
	rx, err := NewReceiver(p, 5, WithNoise(rng, 3))
	if err != nil {
		t.Fatal(err)
	}

	var total, count float64
	for i := 0; i < 200; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		fix, err := rx.LatestFix(at)
		if err != nil {
			t.Fatal(err)
		}
		truth := p.Position(fix.Time)
		total += geo.HaversineMeters(fix.Pos, truth.Pos)
		count++
	}
	mean := total / count
	// |N(0,3)| has mean ~2.4 m; check it is in a sane band and non-zero.
	if mean < 0.5 || mean > 6 {
		t.Errorf("mean noise displacement = %v m, want ~2.4", mean)
	}
}

func TestUpdatePeriod(t *testing.T) {
	rx, err := NewReceiver(testPath(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := rx.UpdatePeriod(); got != 200*time.Millisecond {
		t.Errorf("UpdatePeriod = %v", got)
	}
	if rx.RateHz() != 5 {
		t.Errorf("RateHz = %v", rx.RateHz())
	}
}

// TestTickArithmeticRoundTrips pins the one tick ↔ time conversion: a
// tick's own instant maps back to that tick, and the next update after
// any instant is strictly later — including at 3 Hz, whose period is not
// a whole number of nanoseconds.
func TestTickArithmeticRoundTrips(t *testing.T) {
	for _, rate := range []float64{1, 2, 2.5, 3, 4, 5} {
		rx, err := NewReceiver(testPath(), rate)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 2000; k++ {
			at := rx.tickTime(k)
			if got := rx.tickIndexAtOrBefore(at); got != k {
				t.Fatalf("%v Hz: tickIndexAtOrBefore(tickTime(%d)) = %d", rate, k, got)
			}
			if got := rx.tickIndexAtOrBefore(at.Add(-2 * time.Nanosecond)); got != k-1 {
				t.Fatalf("%v Hz: tick 2 ns before tickTime(%d) = %d, want %d", rate, k, got, k-1)
			}
			for _, probe := range []time.Time{at, at.Add(-time.Nanosecond), at.Add(time.Nanosecond)} {
				if next := rx.NextUpdateAfter(probe); !next.After(probe) {
					t.Fatalf("%v Hz: NextUpdateAfter(%v) = %v, not after it", rate, probe.Sub(t0), next.Sub(t0))
				}
			}
		}
	}
}
