package geo

import "math"

// Point is a position on the local east-north plane, in metres.
type Point struct {
	X float64 `json:"x"` // metres east of the projection origin
	Y float64 `json:"y"` // metres north of the projection origin
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{X: p.X - q.X, Y: p.Y - q.Y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{X: p.X + q.X, Y: p.Y + q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{X: p.X * k, Y: p.Y * k} }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Projection maps WGS-84 coordinates onto a local tangent plane using the
// equirectangular approximation around an origin. At the county scale of the
// paper's field studies (a few miles) the approximation error is far below
// GPS noise, so planar geometry (ellipses, circles) is exact enough for the
// Proof-of-Alibi sufficiency tests.
type Projection struct {
	origin LatLon
	cosLat float64
}

// NewProjection returns a local projection centred at origin.
func NewProjection(origin LatLon) *Projection {
	cos := math.Cos(origin.Lat * math.Pi / 180)
	if math.Abs(cos) < 1e-9 {
		// Degenerate at the poles; clamp so the projection stays finite.
		cos = 1e-9
	}
	return &Projection{origin: origin, cosLat: cos}
}

// ToLocal converts a geographic coordinate to local plane metres. The
// longitude difference is taken the short way round, in (−180°, 180°], so
// points on either side of the antimeridian land next to each other.
func (pr *Projection) ToLocal(p LatLon) Point {
	dLat := (p.Lat - pr.origin.Lat) * math.Pi / 180
	dLonDeg := p.Lon - pr.origin.Lon
	if dLonDeg > 180 {
		dLonDeg -= 360
	} else if dLonDeg <= -180 {
		dLonDeg += 360
	}
	dLon := dLonDeg * math.Pi / 180
	return Point{
		X: EarthRadiusMeters * dLon * pr.cosLat,
		Y: EarthRadiusMeters * dLat,
	}
}

// ToLatLon converts a local plane point back to a geographic coordinate.
func (pr *Projection) ToLatLon(p Point) LatLon {
	return LatLon{
		Lat: pr.origin.Lat + p.Y/EarthRadiusMeters*180/math.Pi,
		Lon: pr.origin.Lon + p.X/(EarthRadiusMeters*pr.cosLat)*180/math.Pi,
	}
}
