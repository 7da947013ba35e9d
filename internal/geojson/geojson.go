// Package geojson renders AliDrone artefacts — no-fly zones, flight
// routes, Proof-of-Alibi samples — as RFC 7946 GeoJSON FeatureCollections,
// so scenarios and verification results can be dropped onto any map tool.
// Circular zones are approximated by regular polygons (GeoJSON has no
// circle primitive).
package geojson

import (
	"encoding/json"
	"fmt"

	"repro/internal/geo"
	"repro/internal/trace"
	"repro/internal/zone"
)

// Feature is one GeoJSON feature.
type Feature struct {
	Type       string         `json:"type"`
	Geometry   map[string]any `json:"geometry"`
	Properties map[string]any `json:"properties,omitempty"`
}

// FeatureCollection is the top-level GeoJSON document.
type FeatureCollection struct {
	Type     string    `json:"type"`
	Features []Feature `json:"features"`
}

// NewCollection creates an empty FeatureCollection.
func NewCollection() *FeatureCollection {
	return &FeatureCollection{Type: "FeatureCollection"}
}

// circleSegments is the polygon resolution for circular zones.
const circleSegments = 48

// coord renders a position in GeoJSON's [lon, lat] order.
func coord(p geo.LatLon) []float64 { return []float64{p.Lon, p.Lat} }

// AddZone appends a circular no-fly zone as a polygon feature.
func (fc *FeatureCollection) AddZone(z zone.NFZ) {
	ring := make([][]float64, 0, circleSegments+1)
	for i := 0; i <= circleSegments; i++ {
		bearing := float64(i) / circleSegments * 360
		ring = append(ring, coord(z.Circle.Center.Offset(bearing, z.Circle.R)))
	}
	fc.Features = append(fc.Features, Feature{
		Type: "Feature",
		Geometry: map[string]any{
			"type":        "Polygon",
			"coordinates": [][][]float64{ring},
		},
		Properties: map[string]any{
			"kind":         "no-fly-zone",
			"id":           z.ID,
			"owner":        z.Owner,
			"radiusMeters": z.Circle.R,
		},
	})
}

// AddRoute appends a route as a LineString feature.
func (fc *FeatureCollection) AddRoute(name string, r *trace.Route) {
	wps := r.Waypoints()
	line := make([][]float64, len(wps))
	for i, wp := range wps {
		line[i] = coord(wp.Pos)
	}
	fc.Features = append(fc.Features, Feature{
		Type: "Feature",
		Geometry: map[string]any{
			"type":        "LineString",
			"coordinates": line,
		},
		Properties: map[string]any{
			"kind":            "route",
			"name":            name,
			"lengthMeters":    r.LengthMeters(),
			"durationSeconds": r.Duration().Seconds(),
		},
	})
}

// FromScenario builds the standard visualisation of a field-study
// scenario: all zones plus the drive route.
func FromScenario(sc *trace.Scenario) *FeatureCollection {
	fc := NewCollection()
	for i, z := range sc.Zones {
		fc.AddZone(zone.NFZ{ID: fmt.Sprintf("%s-zone-%03d", sc.Name, i), Circle: z})
	}
	fc.AddRoute(sc.Name, sc.Route)
	return fc
}

// Encode renders the collection as indented JSON.
func (fc *FeatureCollection) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(fc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("geojson encode: %w", err)
	}
	return data, nil
}
