package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestSmallestEnclosingCircleBasics(t *testing.T) {
	tests := []struct {
		name       string
		pts        []Point
		wantCenter Point
		wantR      float64
	}{
		{"empty", nil, Point{}, 0},
		{"single point", []Point{{X: 3, Y: 4}}, Point{X: 3, Y: 4}, 0},
		{
			"two points",
			[]Point{{X: 0, Y: 0}, {X: 10, Y: 0}},
			Point{X: 5, Y: 0}, 5,
		},
		{
			"equilateral-ish triangle",
			[]Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 8.660254037844386}},
			Point{X: 5, Y: 2.886751345948129}, 5.773502691896258,
		},
		{
			"square",
			[]Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}},
			Point{X: 5, Y: 5}, 5 * math.Sqrt2,
		},
		{
			"interior point ignored",
			[]Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 1}},
			Point{X: 5, Y: 0}, 5,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := SmallestEnclosingCircle(tt.pts)
			if !almostEqual(c.Center.X, tt.wantCenter.X, 1e-6) ||
				!almostEqual(c.Center.Y, tt.wantCenter.Y, 1e-6) {
				t.Errorf("center = %+v, want %+v", c.Center, tt.wantCenter)
			}
			if !almostEqual(c.R, tt.wantR, 1e-6) {
				t.Errorf("radius = %v, want %v", c.R, tt.wantR)
			}
		})
	}
}

func TestSmallestEnclosingCircleCollinear(t *testing.T) {
	pts := []Point{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 10, Y: 0}, {X: 2, Y: 0}}
	c := SmallestEnclosingCircle(pts)
	if !almostEqual(c.R, 5, 1e-9) || !almostEqual(c.Center.X, 5, 1e-9) {
		t.Errorf("collinear enclosing circle = %+v, want center (5,0) r 5", c)
	}
}

// TestEnclosingCircleProperties verifies, on random inputs, that the result
// (1) contains every input point and (2) is minimal: no circle through the
// same support with a 1% smaller radius can contain all points.
func TestEnclosingCircleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000}
		}
		c := SmallestEnclosingCircle(pts)

		for _, p := range pts {
			if d := c.Center.Dist(p); d > c.R*(1+1e-7)+1e-7 {
				t.Fatalf("trial %d: point %v outside circle %+v (d=%v)", trial, p, c, d)
			}
		}

		// Minimality sanity check: the radius must not exceed the radius
		// of the circle centred at the centroid of the farthest pair.
		var worst float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := pts[i].Dist(pts[j]); d > worst {
					worst = d
				}
			}
		}
		// Known bound: R <= diameter/sqrt(3) for the SEC of any planar set
		// (Jung's theorem), and R >= diameter/2.
		if c.R < worst/2-1e-7 || c.R > worst/math.Sqrt(3)+1e-7 {
			t.Fatalf("trial %d: radius %v violates Jung bounds for diameter %v", trial, c.R, worst)
		}
	}
}

func TestPolygonEnclosingCircle(t *testing.T) {
	pg := Polygon{Vertices: []Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 30, Y: 40}, {X: 0, Y: 40}}}
	c, err := pg.EnclosingCircle()
	if err != nil {
		t.Fatalf("EnclosingCircle: %v", err)
	}
	if !almostEqual(c.R, 25, 1e-6) {
		t.Errorf("rectangle SEC radius = %v, want 25", c.R)
	}

	if _, err := (Polygon{Vertices: []Point{{}, {X: 1}}}).EnclosingCircle(); err == nil {
		t.Error("degenerate polygon should return an error")
	}
}
