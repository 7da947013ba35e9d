package geojson

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
	"repro/internal/zone"
)

var t0 = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

func TestZonePolygonGeometry(t *testing.T) {
	fc := NewCollection()
	z := zone.NFZ{
		ID:     "zone-0001",
		Owner:  "alice",
		Circle: geo.GeoCircle{Center: geo.LatLon{Lat: 40.1106, Lon: -88.2073}, R: 100},
	}
	fc.AddZone(z)
	if len(fc.Features) != 1 {
		t.Fatalf("features = %d", len(fc.Features))
	}
	f := fc.Features[0]
	if f.Geometry["type"] != "Polygon" {
		t.Errorf("geometry type = %v", f.Geometry["type"])
	}
	rings, ok := f.Geometry["coordinates"].([][][]float64)
	if !ok || len(rings) != 1 {
		t.Fatalf("coordinates shape wrong")
	}
	ring := rings[0]
	// Closed ring with the configured resolution.
	if len(ring) != circleSegments+1 {
		t.Errorf("ring points = %d", len(ring))
	}
	if ring[0][0] != ring[len(ring)-1][0] || ring[0][1] != ring[len(ring)-1][1] {
		t.Error("ring not closed")
	}
	// Every vertex sits on the circle boundary ([lon, lat] order!).
	for i, v := range ring {
		p := geo.LatLon{Lat: v[1], Lon: v[0]}
		d := geo.HaversineMeters(p, z.Circle.Center)
		if d < 99 || d > 101 {
			t.Fatalf("vertex %d is %v m from centre", i, d)
		}
	}
}

func TestFromScenarioEncodes(t *testing.T) {
	sc, err := trace.NewResidentialScenario(trace.DefaultResidentialConfig(t0))
	if err != nil {
		t.Fatal(err)
	}
	fc := FromScenario(sc)
	// 94 zones + 1 route.
	if len(fc.Features) != 95 {
		t.Fatalf("features = %d, want 95", len(fc.Features))
	}
	data, err := fc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The output must be valid JSON with the GeoJSON top-level type.
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if back["type"] != "FeatureCollection" {
		t.Errorf("top-level type = %v", back["type"])
	}
}

func TestAddRoute(t *testing.T) {
	route, err := trace.ConstantSpeedLine(geo.LatLon{Lat: 40.1, Lon: -88.2}, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fc := NewCollection()
	fc.AddRoute("test", route)
	f := fc.Features[0]
	if f.Geometry["type"] != "LineString" {
		t.Errorf("geometry = %v", f.Geometry["type"])
	}
	if f.Properties["lengthMeters"].(float64) < 500 {
		t.Error("length property missing or wrong")
	}
}
