package geo

import (
	"math/rand"
	"testing"
)

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(urbana)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		p := LatLon{
			Lat: urbana.Lat + (rng.Float64()-0.5)*0.2, // ~±11 km
			Lon: urbana.Lon + (rng.Float64()-0.5)*0.2,
		}
		back := pr.ToLatLon(pr.ToLocal(p))
		if !almostEqual(back.Lat, p.Lat, 1e-9) || !almostEqual(back.Lon, p.Lon, 1e-9) {
			t.Fatalf("round trip %v -> %v", p, back)
		}
	}
}

func TestProjectionDistanceAgreement(t *testing.T) {
	// At county scale the planar distance must agree with haversine to
	// well under GPS accuracy (a few metres).
	pr := NewProjection(urbana)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		p := urbana.Offset(rng.Float64()*360, rng.Float64()*8000)
		q := urbana.Offset(rng.Float64()*360, rng.Float64()*8000)
		planar := pr.ToLocal(p).Dist(pr.ToLocal(q))
		sphere := HaversineMeters(p, q)
		if !almostEqual(planar, sphere, 0.02*sphere+0.5) {
			t.Fatalf("planar %v vs haversine %v for %v-%v", planar, sphere, p, q)
		}
	}
}

func TestProjectionOrigin(t *testing.T) {
	pr := NewProjection(urbana)
	o := pr.ToLocal(urbana)
	if !almostEqual(o.X, 0, 1e-9) || !almostEqual(o.Y, 0, 1e-9) {
		t.Errorf("origin projects to %+v, want (0,0)", o)
	}
}

func TestProjectionPolarClamp(t *testing.T) {
	pr := NewProjection(LatLon{Lat: 90, Lon: 0})
	p := pr.ToLocal(LatLon{Lat: 89.999, Lon: 1})
	if p.X != p.X || p.Y != p.Y { // NaN check
		t.Error("polar projection produced NaN")
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{X: 3, Y: 4}
	b := Point{X: 1, Y: 2}
	if got := a.Sub(b); got != (Point{X: 2, Y: 2}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Add(b); got != (Point{X: 4, Y: 6}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Scale(2); got != (Point{X: 6, Y: 8}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := a.Dist(b); !almostEqual(got, 2.8284271247461903, 1e-12) {
		t.Errorf("Dist = %v", got)
	}
}

func TestGeoCircle(t *testing.T) {
	z := GeoCircle{Center: urbana, R: MilesToMeters(5)}
	if !z.Valid() {
		t.Fatal("airport zone should be valid")
	}
	if !z.ContainsLatLon(urbana.Offset(90, 1000)) {
		t.Error("point 1 km from centre should be inside 5-mile zone")
	}
	if z.ContainsLatLon(urbana.Offset(90, 9000)) {
		t.Error("point 9 km out should be outside 5-mile (8 km) zone")
	}

	// Boundary distance signs.
	if d := z.BoundaryDistMeters(urbana.Offset(0, 9000)); d <= 0 {
		t.Errorf("outside point boundary distance = %v, want > 0", d)
	}
	if d := z.BoundaryDistMeters(urbana); d >= 0 {
		t.Errorf("centre boundary distance = %v, want < 0", d)
	}

	if (GeoCircle{Center: urbana, R: 0}).Valid() {
		t.Error("zero-radius zone should be invalid")
	}
	if (GeoCircle{Center: LatLon{Lat: 91}, R: 5}).Valid() {
		t.Error("invalid centre should make zone invalid")
	}
}

func TestCircleBoundaryDist(t *testing.T) {
	c := Circle{Center: Point{}, R: 10}
	if d := c.BoundaryDist(Point{X: 13, Y: 0}); !almostEqual(d, 3, 1e-12) {
		t.Errorf("outside dist = %v, want 3", d)
	}
	if d := c.BoundaryDist(Point{X: 4, Y: 0}); !almostEqual(d, -6, 1e-12) {
		t.Errorf("inside dist = %v, want -6", d)
	}
	if d := c.BoundaryDist(Point{X: 10, Y: 0}); !almostEqual(d, 0, 1e-12) {
		t.Errorf("boundary dist = %v, want 0", d)
	}
}
