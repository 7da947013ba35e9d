package trace

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/geo"
)

var t0 = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

func TestNewRouteValidation(t *testing.T) {
	p := geo.LatLon{Lat: 40, Lon: -88}
	if _, err := NewRoute([]Waypoint{{Pos: p, Time: t0}}); !errors.Is(err, ErrTooFewWaypoints) {
		t.Errorf("err = %v, want ErrTooFewWaypoints", err)
	}
	dup := []Waypoint{{Pos: p, Time: t0}, {Pos: p, Time: t0}}
	if _, err := NewRoute(dup); !errors.Is(err, ErrNotChronological) {
		t.Errorf("err = %v, want ErrNotChronological", err)
	}
}

func TestRoutePositionInterpolation(t *testing.T) {
	a := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	b := a.Offset(90, 1000)
	r, err := NewRoute([]Waypoint{
		{Pos: a, Time: t0},
		{Pos: b, Time: t0.Add(100 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}

	mid := r.Position(t0.Add(50 * time.Second))
	want := a.Offset(90, 500)
	if d := geo.HaversineMeters(mid.Pos, want); d > 1 {
		t.Errorf("midpoint is %v m off", d)
	}
	if math.Abs(mid.SpeedMS-10) > 0.01 {
		t.Errorf("speed = %v, want 10", mid.SpeedMS)
	}
	if math.Abs(mid.CourseDeg-90) > 1 {
		t.Errorf("course = %v, want ~90", mid.CourseDeg)
	}

	// Clamping.
	before := r.Position(t0.Add(-time.Minute))
	if d := geo.HaversineMeters(before.Pos, a); d > 0.01 {
		t.Errorf("position before start should clamp to start, off by %v m", d)
	}
	after := r.Position(t0.Add(time.Hour))
	if d := geo.HaversineMeters(after.Pos, b); d > 0.01 {
		t.Errorf("position after end should clamp to end, off by %v m", d)
	}
}

func TestRoutePositionMultiSegment(t *testing.T) {
	a := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	wps := []Waypoint{
		{Pos: a, Time: t0, AltMeters: 0},
		{Pos: a.Offset(0, 100), Time: t0.Add(10 * time.Second), AltMeters: 40},
		{Pos: a.Offset(0, 100).Offset(90, 200), Time: t0.Add(30 * time.Second), AltMeters: 80},
	}
	r, err := NewRoute(wps)
	if err != nil {
		t.Fatal(err)
	}

	// In the middle of segment 2 (t=20 s, frac 0.5).
	fix := r.Position(t0.Add(20 * time.Second))
	want := a.Offset(0, 100).Offset(90, 100)
	if d := geo.HaversineMeters(fix.Pos, want); d > 1 {
		t.Errorf("segment-2 midpoint is %v m off", d)
	}
	if math.Abs(fix.AltMeters-60) > 0.5 {
		t.Errorf("altitude = %v, want 60", fix.AltMeters)
	}
	if math.Abs(fix.SpeedMS-10) > 0.1 {
		t.Errorf("speed = %v, want 10", fix.SpeedMS)
	}

	// Exactly on the middle waypoint.
	fix = r.Position(t0.Add(10 * time.Second))
	if d := geo.HaversineMeters(fix.Pos, wps[1].Pos); d > 0.5 {
		t.Errorf("waypoint position off by %v m", d)
	}

	if got := r.Duration(); got != 30*time.Second {
		t.Errorf("Duration = %v", got)
	}
	if got := r.LengthMeters(); math.Abs(got-300) > 1 {
		t.Errorf("LengthMeters = %v, want ~300", got)
	}
	if got := len(r.Waypoints()); got != 3 {
		t.Errorf("Waypoints len = %d", got)
	}
}

func TestConstantSpeedLine(t *testing.T) {
	start := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	r, err := ConstantSpeedLine(start, 45, 15, t0, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.LengthMeters(), 15.0*300; math.Abs(got-want) > want*0.01 {
		t.Errorf("length = %v, want ~%v", got, want)
	}
	// Speed should be ~15 m/s everywhere.
	for _, dt := range []time.Duration{0, time.Minute, 4 * time.Minute} {
		if fix := r.Position(t0.Add(dt)); math.Abs(fix.SpeedMS-15) > 0.2 {
			t.Errorf("speed at %v = %v", dt, fix.SpeedMS)
		}
	}
}

func TestAirportScenarioGeometry(t *testing.T) {
	sc, err := NewAirportScenario(DefaultAirportConfig(t0))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Zones) != 1 {
		t.Fatalf("zones = %d, want 1", len(sc.Zones))
	}
	z := sc.Zones[0]
	if math.Abs(z.R-geo.MilesToMeters(5)) > 1 {
		t.Errorf("zone radius = %v", z.R)
	}

	// Start ~30 ft outside the boundary.
	startDist := z.BoundaryDistMeters(sc.Route.Position(t0).Pos)
	if math.Abs(startDist-geo.FeetToMeters(30)) > 2 {
		t.Errorf("start boundary distance = %v m, want ~9.1", startDist)
	}

	// End ~3 miles + 30 ft out, after 12 minutes.
	endDist := z.BoundaryDistMeters(sc.Route.Position(sc.Route.End()).Pos)
	if math.Abs(endDist-geo.MilesToMeters(3)-geo.FeetToMeters(30)) > 50 {
		t.Errorf("end boundary distance = %v m, want ~4837", endDist)
	}
	if sc.Route.Duration() != 12*time.Minute {
		t.Errorf("duration = %v", sc.Route.Duration())
	}

	// The vehicle never enters the zone.
	for dt := time.Duration(0); dt <= sc.Route.Duration(); dt += time.Second {
		if z.ContainsLatLon(sc.Route.Position(t0.Add(dt)).Pos) {
			t.Fatalf("vehicle inside NFZ at %v", dt)
		}
	}
}

func TestAirportScenarioBadConfig(t *testing.T) {
	cfg := DefaultAirportConfig(t0)
	cfg.RadiusMeters = 0
	if _, err := NewAirportScenario(cfg); err == nil {
		t.Error("zero radius should error")
	}
}

func TestResidentialScenarioLayout(t *testing.T) {
	cfg := DefaultResidentialConfig(t0)
	sc, err := NewResidentialScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Zones) != 94 {
		t.Fatalf("zones = %d, want 94", len(sc.Zones))
	}
	for i, z := range sc.Zones {
		if math.Abs(z.R-geo.FeetToMeters(20)) > 0.01 {
			t.Fatalf("zone %d radius = %v, want 20 ft", i, z.R)
		}
	}
	if got, want := sc.Route.LengthMeters(), geo.MilesToMeters(1); math.Abs(got-want) > want*0.01 {
		t.Errorf("route length = %v, want ~%v", got, want)
	}

	// Nearest-boundary-distance profile: compute per second.
	minOverall := math.Inf(1)
	var sparseMin, sparseMax = math.Inf(1), math.Inf(-1)
	var denseMin float64 = math.Inf(1)
	for dt := time.Duration(0); dt <= sc.Route.Duration(); dt += time.Second {
		pos := sc.Route.Position(t0.Add(dt)).Pos
		nearest := math.Inf(1)
		for _, z := range sc.Zones {
			if d := z.BoundaryDistMeters(pos); d < nearest {
				nearest = d
			}
		}
		if nearest < minOverall {
			minOverall = nearest
		}
		frac := dt.Seconds() / sc.Route.Duration().Seconds()
		if frac < 0.35 {
			sparseMin = math.Min(sparseMin, nearest)
			sparseMax = math.Max(sparseMax, nearest)
		} else if frac > 0.45 {
			denseMin = math.Min(denseMin, nearest)
		}
	}

	// The paper reports: sparse section 50-100 ft, dense 20-70 ft,
	// closest approach 21 ft. Check the generated profile hits those
	// bands (with slack for along-road geometry).
	if ft := geo.MetersToFeet(minOverall); ft < 19 || ft > 23 {
		t.Errorf("closest approach = %.1f ft, want ~21", ft)
	}
	if ft := geo.MetersToFeet(sparseMin); ft < 40 {
		t.Errorf("sparse section min distance = %.1f ft, want >= ~50", ft)
	}
	if ft := geo.MetersToFeet(denseMin); ft > 30 {
		t.Errorf("dense section min distance = %.1f ft, want ~20-30", ft)
	}
	_ = sparseMax

	// The vehicle must never actually enter a zone (roads are public).
	for dt := time.Duration(0); dt <= sc.Route.Duration(); dt += 500 * time.Millisecond {
		pos := sc.Route.Position(t0.Add(dt)).Pos
		for zi, z := range sc.Zones {
			if z.ContainsLatLon(pos) {
				t.Fatalf("vehicle inside zone %d at %v", zi, dt)
			}
		}
	}
}

func TestResidentialScenarioDeterminism(t *testing.T) {
	cfg := DefaultResidentialConfig(t0)
	a, err := NewResidentialScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewResidentialScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Zones {
		if a.Zones[i] != b.Zones[i] {
			t.Fatalf("zone %d differs between identical configs", i)
		}
	}
}

func TestResidentialScenarioBadConfig(t *testing.T) {
	cfg := DefaultResidentialConfig(t0)
	cfg.NumZones = 2
	if _, err := NewResidentialScenario(cfg); err == nil {
		t.Error("too few zones should error")
	}
	cfg = DefaultResidentialConfig(t0)
	cfg.LengthM = -1
	if _, err := NewResidentialScenario(cfg); err == nil {
		t.Error("negative length should error")
	}
}
