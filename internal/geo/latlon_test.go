package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// urbana is the approximate location of the paper's field studies.
var urbana = LatLon{Lat: 40.1106, Lon: -88.2073}

func TestLatLonValid(t *testing.T) {
	tests := []struct {
		name string
		p    LatLon
		want bool
	}{
		{"urbana", urbana, true},
		{"north pole", LatLon{Lat: 90, Lon: 0}, true},
		{"date line", LatLon{Lat: 0, Lon: 180}, true},
		{"lat too big", LatLon{Lat: 90.01, Lon: 0}, false},
		{"lon too small", LatLon{Lat: 0, Lon: -180.5}, false},
		{"nan lat", LatLon{Lat: math.NaN(), Lon: 0}, false},
		{"nan lon", LatLon{Lat: 0, Lon: math.NaN()}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Valid(); got != tt.want {
				t.Errorf("Valid() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	nyc := LatLon{Lat: 40.7128, Lon: -74.0060}
	la := LatLon{Lat: 34.0522, Lon: -118.2437}
	// Great-circle NYC-LA is roughly 3936 km.
	d := HaversineMeters(nyc, la)
	if d < 3.90e6 || d > 3.96e6 {
		t.Errorf("NYC-LA haversine = %v m, want ~3.94e6", d)
	}

	if d := HaversineMeters(urbana, urbana); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

func TestHaversineSymmetry(t *testing.T) {
	fn := func(lat1, lon1, lat2, lon2 float64) bool {
		p := LatLon{Lat: math.Mod(lat1, 89), Lon: math.Mod(lon1, 179)}
		q := LatLon{Lat: math.Mod(lat2, 89), Lon: math.Mod(lon2, 179)}
		return almostEqual(HaversineMeters(p, q), HaversineMeters(q, p), 1e-6)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		bearing := rng.Float64() * 360
		dist := rng.Float64() * 20000 // up to 20 km, the scenario scale
		q := urbana.Offset(bearing, dist)
		got := HaversineMeters(urbana, q)
		if !almostEqual(got, dist, 1e-3*dist+1e-6) {
			t.Fatalf("offset(%v, %v): haversine back = %v", bearing, dist, got)
		}
	}
}

func TestOffsetBearing(t *testing.T) {
	// Travelling due north increases latitude and keeps longitude.
	q := urbana.Offset(0, 1000)
	if q.Lat <= urbana.Lat {
		t.Errorf("north offset did not increase latitude: %v", q)
	}
	if !almostEqual(q.Lon, urbana.Lon, 1e-9) {
		t.Errorf("north offset changed longitude: %v", q)
	}

	// Travelling due east keeps latitude (to first order).
	q = urbana.Offset(90, 1000)
	if !almostEqual(q.Lat, urbana.Lat, 1e-4) {
		t.Errorf("east offset changed latitude too much: %v", q)
	}
	if q.Lon <= urbana.Lon {
		t.Errorf("east offset did not increase longitude: %v", q)
	}
}

func TestInitialBearing(t *testing.T) {
	north := urbana.Offset(0, 5000)
	if b := InitialBearing(urbana, north); !almostEqual(b, 0, 0.5) && !almostEqual(b, 360, 0.5) {
		t.Errorf("bearing to north point = %v, want ~0", b)
	}
	east := urbana.Offset(90, 5000)
	if b := InitialBearing(urbana, east); !almostEqual(b, 90, 0.5) {
		t.Errorf("bearing to east point = %v, want ~90", b)
	}
}

func TestRect(t *testing.T) {
	a := LatLon{Lat: 40.2, Lon: -88.1}
	b := LatLon{Lat: 40.0, Lon: -88.3}
	r := NewRect(a, b)

	if !r.Valid() {
		t.Fatal("rect from valid corners should be valid")
	}
	if !r.Contains(urbana) {
		t.Errorf("rect %+v should contain %v", r, urbana)
	}
	if r.Contains(LatLon{Lat: 41, Lon: -88.2}) {
		t.Error("rect should not contain point north of it")
	}
	if r.Contains(LatLon{Lat: 40.1, Lon: -87.0}) {
		t.Error("rect should not contain point east of it")
	}

	// Corners are inclusive.
	if !r.Contains(LatLon{Lat: r.MinLat, Lon: r.MinLon}) {
		t.Error("rect should contain its own min corner")
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(LatLon{Lat: 40.0, Lon: -88.3}, LatLon{Lat: 40.2, Lon: -88.1})
	e := r.Expand(5000)

	if e.MinLat >= r.MinLat || e.MaxLat <= r.MaxLat {
		t.Error("expand should widen latitude range")
	}
	if e.MinLon >= r.MinLon || e.MaxLon <= r.MaxLon {
		t.Error("expand should widen longitude range")
	}

	// A point ~3 km outside the original rect should be inside the
	// expanded one.
	outside := LatLon{Lat: 40.2, Lon: -88.1}.Offset(45, 3000)
	if r.Contains(outside) {
		t.Fatal("test point should start outside the rect")
	}
	if !e.Contains(outside) {
		t.Error("expanded rect should contain the nearby point")
	}
}

// TestRectExpandCoversThePolewardEdge pins that a tall box at high
// latitude is widened enough on its poleward side: a disk centred at the
// north edge's latitude, just under its radius east of the box, overlaps
// the box, so the expanded box must contain its centre. Taking the cosine
// at the box's mid-latitude (67.5°N here) under-expands and misses it.
func TestRectExpandCoversThePolewardEdge(t *testing.T) {
	r := NewRect(LatLon{Lat: 60, Lon: 10}, LatLon{Lat: 75, Lon: 11})
	const radius = 1000.0
	center := LatLon{Lat: 75, Lon: 11}.Offset(90, 0.95*radius)
	if r.Contains(center) || HaversineMeters(center, LatLon{Lat: 75, Lon: 11}) >= radius {
		t.Fatalf("fixture: centre %v must lie outside the box and within %v m of its north-east corner", center, radius)
	}
	if !r.Expand(radius).Contains(center) {
		t.Errorf("Expand(%v) = %+v misses the centre %v of a zone overlapping the box", radius, r.Expand(radius), center)
	}
	// Mirrored in the southern hemisphere, the poleward edge is MinLat.
	s := NewRect(LatLon{Lat: -75, Lon: 10}, LatLon{Lat: -60, Lon: 11})
	south := LatLon{Lat: -75, Lon: 11}.Offset(90, 0.95*radius)
	if !s.Expand(radius).Contains(south) {
		t.Errorf("Expand(%v) = %+v misses the southern centre %v", radius, s.Expand(radius), south)
	}
}

func TestRectExpandClamps(t *testing.T) {
	r := NewRect(LatLon{Lat: 89.9, Lon: 179.9}, LatLon{Lat: 89.99, Lon: 179.99})
	e := r.Expand(1e7)
	if e.MaxLat > 90 || e.MaxLon > 180 || e.MinLat < -90 || e.MinLon < -180 {
		t.Errorf("expanded rect exceeds legal ranges: %+v", e)
	}
}
