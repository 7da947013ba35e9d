package geo

import "math"

// Circle is a disk on the local plane: the planar representation of a
// circular no-fly zone z = (lat, lon, r).
type Circle struct {
	Center Point   `json:"center"`
	R      float64 `json:"r"` // radius in metres
}

// BoundaryDist returns the signed distance from p to the circle boundary:
// positive outside, zero on the boundary, negative inside. This is the
// quantity D_i = dist(S_i, center) - r used by the adaptive sampling
// conditions (paper eq. 2 and 3).
func (c Circle) BoundaryDist(p Point) float64 {
	return c.Center.Dist(p) - c.R
}

// GeoCircle is a circular zone in geographic coordinates, as registered by a
// Zone Owner.
type GeoCircle struct {
	Center LatLon  `json:"center"`
	R      float64 `json:"r"` // radius in metres
}

// Valid reports whether the zone has a legal centre and a positive radius.
func (g GeoCircle) Valid() bool { return g.Center.Valid() && g.R > 0 && !math.IsInf(g.R, 0) }

// ToLocal projects the zone onto the local plane.
func (g GeoCircle) ToLocal(pr *Projection) Circle {
	return Circle{Center: pr.ToLocal(g.Center), R: g.R}
}

// BoundaryDistMeters returns the signed haversine distance from p to the
// zone boundary: positive outside, negative inside.
func (g GeoCircle) BoundaryDistMeters(p LatLon) float64 {
	return HaversineMeters(g.Center, p) - g.R
}

// ContainsLatLon reports whether the geographic point lies inside the zone.
func (g GeoCircle) ContainsLatLon(p LatLon) bool {
	return HaversineMeters(g.Center, p) <= g.R
}
