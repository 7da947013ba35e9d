package geo

import "errors"

// ErrDegeneratePolygon is returned when a polygon has fewer than three
// vertices and therefore cannot describe a no-fly area.
var ErrDegeneratePolygon = errors.New("geo: polygon needs at least 3 vertices")

// Polygon is a simple polygon on the local plane, described by its vertices
// in order. Zone Owners may register polygonal no-fly zones (paper §VII-B2);
// the auditor converts them to their smallest enclosing circle once at
// registration time.
type Polygon struct {
	Vertices []Point `json:"vertices"`
}

// Valid reports whether the polygon has at least three vertices.
func (pg Polygon) Valid() bool { return len(pg.Vertices) >= 3 }

// EnclosingCircle returns the smallest circle covering every vertex, which
// (for a convex or star-shaped no-fly area) covers the whole polygon. This
// is the registration-time conversion from §VII-B2.
func (pg Polygon) EnclosingCircle() (Circle, error) {
	if !pg.Valid() {
		return Circle{}, ErrDegeneratePolygon
	}
	return SmallestEnclosingCircle(pg.Vertices), nil
}
