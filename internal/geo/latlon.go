package geo

import (
	"fmt"
	"math"
)

// LatLon is a WGS-84 geographic coordinate in decimal degrees.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Valid reports whether the coordinate lies within the legal WGS-84 ranges.
func (p LatLon) Valid() bool {
	return !math.IsNaN(p.Lat) && !math.IsNaN(p.Lon) &&
		p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

// String renders the coordinate as "(lat, lon)" with six decimal places,
// matching the precision used in the paper's figures.
func (p LatLon) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// HaversineMeters returns the great-circle distance in metres between p and
// q using the haversine formula on a spherical Earth.
func HaversineMeters(p, q LatLon) float64 {
	lat1 := p.Lat * math.Pi / 180
	lat2 := q.Lat * math.Pi / 180
	dLat := (q.Lat - p.Lat) * math.Pi / 180
	dLon := (q.Lon - p.Lon) * math.Pi / 180

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	a := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(a)))
}

// InitialBearing returns the initial great-circle bearing from p to q in
// degrees clockwise from true north, in [0, 360).
func InitialBearing(p, q LatLon) float64 {
	lat1 := p.Lat * math.Pi / 180
	lat2 := q.Lat * math.Pi / 180
	dLon := (q.Lon - p.Lon) * math.Pi / 180

	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	deg := math.Atan2(y, x) * 180 / math.Pi
	return math.Mod(deg+360, 360)
}

// Offset returns the coordinate reached by travelling distanceMeters from p
// along the given bearing (degrees clockwise from north) on a spherical
// Earth.
func (p LatLon) Offset(bearingDeg, distanceMeters float64) LatLon {
	brg := bearingDeg * math.Pi / 180
	lat1 := p.Lat * math.Pi / 180
	lon1 := p.Lon * math.Pi / 180
	ad := distanceMeters / EarthRadiusMeters

	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(brg)
	lat2 := math.Asin(sinLat2)
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*sinLat2,
	)

	// Normalise longitude into [-180, 180].
	lonDeg := lon2 * 180 / math.Pi
	for lonDeg > 180 {
		lonDeg -= 360
	}
	for lonDeg < -180 {
		lonDeg += 360
	}
	return LatLon{Lat: lat2 * 180 / math.Pi, Lon: lonDeg}
}

// Rect is an axis-aligned latitude/longitude rectangle, used for the zone
// query "navigation area" in the protocol (two corner coordinates).
type Rect struct {
	MinLat float64 `json:"minLat"`
	MinLon float64 `json:"minLon"`
	MaxLat float64 `json:"maxLat"`
	MaxLon float64 `json:"maxLon"`
}

// NewRect builds a Rect from two arbitrary corner points, normalising the
// min/max ordering as the auditor does when it receives a zone query.
func NewRect(a, b LatLon) Rect {
	return Rect{
		MinLat: math.Min(a.Lat, b.Lat),
		MinLon: math.Min(a.Lon, b.Lon),
		MaxLat: math.Max(a.Lat, b.Lat),
		MaxLon: math.Max(a.Lon, b.Lon),
	}
}

// Contains reports whether the point lies inside the rectangle (inclusive).
func (r Rect) Contains(p LatLon) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Valid reports whether the rectangle corners are legal coordinates and
// properly ordered.
func (r Rect) Valid() bool {
	return (LatLon{Lat: r.MinLat, Lon: r.MinLon}).Valid() &&
		(LatLon{Lat: r.MaxLat, Lon: r.MaxLon}).Valid() &&
		r.MinLat <= r.MaxLat && r.MinLon <= r.MaxLon
}

// Expand grows the rectangle by approximately marginMeters on every side.
// The auditor uses this so that zones whose *boundary* reaches into the
// queried navigation area are returned even when their centres fall outside.
// The longitude margin is taken at the expanded box's poleward edge, where
// a degree of longitude is shortest, so it covers marginMeters at every
// latitude the box spans.
func (r Rect) Expand(marginMeters float64) Rect {
	dLat := marginMeters / EarthRadiusMeters * 180 / math.Pi
	poleward := math.Min(90, math.Max(math.Abs(r.MinLat-dLat), math.Abs(r.MaxLat+dLat)))
	cos := math.Cos(poleward * math.Pi / 180)
	if cos < 1e-6 {
		cos = 1e-6
	}
	dLon := dLat / cos
	return Rect{
		MinLat: math.Max(-90, r.MinLat-dLat),
		MinLon: math.Max(-180, r.MinLon-dLon),
		MaxLat: math.Min(90, r.MaxLat+dLat),
		MaxLon: math.Min(180, r.MaxLon+dLon),
	}
}
