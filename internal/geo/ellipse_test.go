package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestTravelEllipseEmpty(t *testing.T) {
	f1 := Point{X: 0, Y: 0}
	f2 := Point{X: 1000, Y: 0}

	// dt too short to cover the inter-focal distance at vmax.
	e := NewTravelEllipse(f1, f2, 10, 44.704) // 447 m budget < 1000 m
	if !e.Empty() {
		t.Error("ellipse should be empty when samples exceed the speed bound")
	}
	if e.IntersectsDisk(Circle{Center: Point{X: 500, Y: 0}, R: 100}) {
		t.Error("empty ellipse must not intersect anything")
	}

	// Exactly feasible: degenerate segment ellipse.
	e = TravelEllipse{F1: f1, F2: f2, SumLimit: 1000}
	if e.Empty() {
		t.Error("ellipse with SumLimit == focal distance is the segment, not empty")
	}
}

func TestTravelEllipseContains(t *testing.T) {
	e := TravelEllipse{F1: Point{X: -300, Y: 0}, F2: Point{X: 300, Y: 0}, SumLimit: 1000}
	// a = 500, c = 300, b = 400.
	tests := []struct {
		name string
		p    Point
		want bool
	}{
		{"center", Point{}, true},
		{"focus", Point{X: 300, Y: 0}, true},
		{"major vertex", Point{X: 500, Y: 0}, true},
		{"minor vertex", Point{X: 0, Y: 400}, true},
		{"beyond major vertex", Point{X: 500.1, Y: 0}, false},
		{"beyond minor vertex", Point{X: 0, Y: 400.1}, false},
		{"far away", Point{X: 5000, Y: 5000}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := e.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestIntersectsDiskTangent(t *testing.T) {
	// Paper Fig 3: the minimum sampling rate yields an ellipse tangent to
	// the NFZ. Build an ellipse and a circle tangent at the major vertex.
	e := TravelEllipse{F1: Point{X: -300, Y: 0}, F2: Point{X: 300, Y: 0}, SumLimit: 1000}
	// Major vertex at (500, 0); circle of radius 100 centred at (600, 0)
	// touches it exactly.
	touching := Circle{Center: Point{X: 600, Y: 0}, R: 100}
	if !e.IntersectsDisk(touching) {
		t.Error("tangent circle should intersect (boundary contact)")
	}
	separated := Circle{Center: Point{X: 601, Y: 0}, R: 100}
	if e.IntersectsDisk(separated) {
		t.Error("circle 1 m past tangency should not intersect")
	}
}

func TestIntersectsDiskOverlapping(t *testing.T) {
	e := TravelEllipse{F1: Point{X: -300, Y: 0}, F2: Point{X: 300, Y: 0}, SumLimit: 1000}
	tests := []struct {
		name string
		c    Circle
		want bool
	}{
		{"circle containing a focus", Circle{Center: Point{X: 300, Y: 50}, R: 100}, true},
		{"circle inside ellipse", Circle{Center: Point{}, R: 10}, true},
		{"circle containing whole ellipse", Circle{Center: Point{}, R: 10000}, true},
		{"disjoint above", Circle{Center: Point{X: 0, Y: 1000}, R: 100}, false},
		{"disjoint diagonal", Circle{Center: Point{X: 800, Y: 800}, R: 200}, false},
		{"overlapping minor vertex", Circle{Center: Point{X: 0, Y: 450}, R: 60}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := e.IntersectsDisk(tt.c); got != tt.want {
				t.Errorf("IntersectsDisk(%+v) = %v, want %v", tt.c, got, tt.want)
			}
		})
	}
}

// intersectsByMinimisation is the definition IntersectsDisk must keep:
// the ellipse is non-empty and the focal-sum minimum over the disk is
// within SumLimit. IntersectsDisk answers most disks from the planar lower
// bound instead; these tests hold it to the minimisation's answer.
func intersectsByMinimisation(e TravelEllipse, c Circle) bool {
	return !e.Empty() && e.MinFocalSumOnDisk(c) <= e.SumLimit
}

// TestConservativeImpliesExact checks the soundness relationship both the
// sampler and IntersectsDisk's bound-first shortcut rely on: whenever the
// paper's conservative boundary test says "disjoint", the minimisation
// must agree. (The converse may fail — the conservative test is allowed
// to be pessimistic.) IntersectsDisk itself must equal the minimisation
// on every draw.
func TestConservativeImpliesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cleared := 0
	for i := 0; i < 2000; i++ {
		f1 := Point{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000}
		f2 := Point{X: rng.Float64()*2000 - 1000, Y: rng.Float64()*2000 - 1000}
		sum := f1.Dist(f2) + rng.Float64()*1000
		e := TravelEllipse{F1: f1, F2: f2, SumLimit: sum}
		c := Circle{
			Center: Point{X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000},
			R:      rng.Float64() * 500,
		}
		exact := intersectsByMinimisation(e, c)
		if e.DisjointFromDiskConservative(c) {
			cleared++
			if exact {
				t.Fatalf("conservative says disjoint but exact says intersecting:\n e=%+v\n c=%+v", e, c)
			}
		}
		if got := e.IntersectsDisk(c); got != exact {
			t.Fatalf("IntersectsDisk = %v, minimisation says %v:\n e=%+v\n c=%+v", got, exact, e, c)
		}
	}
	if cleared == 0 || cleared == 2000 {
		t.Fatalf("bound cleared %d of 2000 draws — one side of the test is vacuous", cleared)
	}
}

// TestIntersectsDiskBoundFirst pins IntersectsDisk where the lower bound
// and the minimisation are closest to disagreeing: disks tangent to the
// ellipse, foci and centre collinear with the disk on one side (there
// D1+D2 *is* the focal-sum minimum, so the bound is tight), and a focus
// inside the disk (a negative Di).
func TestIntersectsDiskBoundFirst(t *testing.T) {
	// a = 500, c = 300, b = 400: vertices at (±500, 0) and (0, ±400).
	e := TravelEllipse{F1: Point{X: -300, Y: 0}, F2: Point{X: 300, Y: 0}, SumLimit: 1000}
	segment := TravelEllipse{F1: e.F1, F2: e.F2, SumLimit: 600} // degenerate: the focal segment itself
	empty := TravelEllipse{F1: e.F1, F2: e.F2, SumLimit: 599}   // speed-infeasible pair
	point := TravelEllipse{F1: e.F1, F2: e.F1, SumLimit: 0}     // zero-Δt pair
	// Outward unit normal at the ellipse point (400, 240): ∝ (x/a², y/b²).
	nx, ny := 400/250000.0, 240/160000.0
	nx, ny = nx/math.Hypot(nx, ny), ny/math.Hypot(nx, ny)

	tests := []struct {
		name string
		e    TravelEllipse
		c    Circle
		want bool
	}{
		{"collinear, tangent at the major vertex", e, Circle{Center: Point{X: 600, Y: 0}, R: 100}, true},
		{"collinear, 1 mm short of the major vertex", e, Circle{Center: Point{X: 600.001, Y: 0}, R: 100}, false},
		{"collinear, 1 mm past the major vertex", e, Circle{Center: Point{X: 599.999, Y: 0}, R: 100}, true},
		{"collinear, other side", e, Circle{Center: Point{X: -650, Y: 0}, R: 149.999}, false},
		{"1 mm short of the minor vertex", e, Circle{Center: Point{X: 0, Y: 460.001}, R: 60}, false},
		{"1 mm past the minor vertex", e, Circle{Center: Point{X: 0, Y: 459.999}, R: 60}, true},
		{"off-axis, 1 mm short", e, Circle{Center: Point{X: 400 + nx*50.001, Y: 240 + ny*50.001}, R: 50}, false},
		{"off-axis, 1 mm past", e, Circle{Center: Point{X: 400 + nx*49.999, Y: 240 + ny*49.999}, R: 50}, true},
		{"focus inside the disk", e, Circle{Center: Point{X: -300, Y: 10}, R: 50}, true},
		{"both foci inside the disk", e, Circle{Center: Point{}, R: 301}, true},
		{"disk inside the ellipse, off the focal segment", e, Circle{Center: Point{X: 0, Y: 200}, R: 10}, true},
		{"segment ellipse, focus on the disk boundary", segment, Circle{Center: Point{X: 400, Y: 0}, R: 100}, true},
		{"segment ellipse, disk 1 mm beyond the focus", segment, Circle{Center: Point{X: 400.001, Y: 0}, R: 100}, false},
		{"segment ellipse, disk beside the segment", segment, Circle{Center: Point{X: 0, Y: 100.001}, R: 100}, false},
		{"empty ellipse, focus inside the disk", empty, Circle{Center: Point{X: -300, Y: 10}, R: 50}, false},
		{"empty ellipse, disk over both foci", empty, Circle{Center: Point{}, R: 1000}, false},
		{"point ellipse inside the disk", point, Circle{Center: Point{X: -290, Y: 0}, R: 10}, true},
		{"point ellipse outside the disk", point, Circle{Center: Point{X: -289.999, Y: 0}, R: 10}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.e.IntersectsDisk(tt.c); got != tt.want {
				t.Errorf("IntersectsDisk(%+v) = %v, want %v", tt.c, got, tt.want)
			}
			if ref := intersectsByMinimisation(tt.e, tt.c); ref != tt.want {
				t.Errorf("minimisation on %+v = %v, want %v", tt.c, ref, tt.want)
			}
		})
	}
}

// TestExactMatchesSampledMembership cross-validates the exact intersection
// test against brute-force point sampling of the disk.
func TestExactMatchesSampledMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		f1 := Point{X: rng.Float64()*1000 - 500, Y: rng.Float64()*1000 - 500}
		f2 := Point{X: rng.Float64()*1000 - 500, Y: rng.Float64()*1000 - 500}
		sum := f1.Dist(f2) + rng.Float64()*800
		e := TravelEllipse{F1: f1, F2: f2, SumLimit: sum}
		c := Circle{
			Center: Point{X: rng.Float64()*3000 - 1500, Y: rng.Float64()*3000 - 1500},
			R:      rng.Float64()*400 + 1,
		}

		// Sample the disk densely; if any sampled point is inside the
		// ellipse, the exact test must report intersection.
		found := false
		for j := 0; j < 500 && !found; j++ {
			theta := rng.Float64() * 2 * math.Pi
			rr := math.Sqrt(rng.Float64()) * c.R
			p := Point{X: c.Center.X + rr*math.Cos(theta), Y: c.Center.Y + rr*math.Sin(theta)}
			if e.Contains(p) {
				found = true
			}
		}
		if found && !e.IntersectsDisk(c) {
			t.Fatalf("sampled point inside ellipse but exact test says disjoint:\n e=%+v\n c=%+v", e, c)
		}
	}
}

func TestMinFocalSumOnDisk(t *testing.T) {
	e := TravelEllipse{F1: Point{X: -100, Y: 0}, F2: Point{X: 100, Y: 0}, SumLimit: 400}

	// Disk crossing the focal segment: minimum is the focal distance.
	c := Circle{Center: Point{X: 0, Y: 10}, R: 20}
	if got := e.MinFocalSumOnDisk(c); !almostEqual(got, 200, 1e-6) {
		t.Errorf("min over segment-crossing disk = %v, want 200", got)
	}

	// Disk far along the major axis: nearest point is the disk boundary
	// point closest to both foci, at (400, 0).
	c = Circle{Center: Point{X: 500, Y: 0}, R: 100}
	want := (400.0 - (-100.0)) + (400.0 - 100.0) // 500 + 300
	if got := e.MinFocalSumOnDisk(c); !almostEqual(got, want, 1e-3) {
		t.Errorf("min over distant disk = %v, want %v", got, want)
	}
}

func TestSegmentDistToPoint(t *testing.T) {
	a, b := Point{X: 0, Y: 0}, Point{X: 10, Y: 0}
	tests := []struct {
		name string
		p    Point
		want float64
	}{
		{"above middle", Point{X: 5, Y: 3}, 3},
		{"beyond end", Point{X: 13, Y: 4}, 5},
		{"before start", Point{X: -3, Y: 4}, 5},
		{"on segment", Point{X: 7, Y: 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := segmentDistToPoint(a, b, tt.p); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("segmentDistToPoint = %v, want %v", got, tt.want)
			}
		})
	}

	// Degenerate zero-length segment.
	if got := segmentDistToPoint(a, a, Point{X: 3, Y: 4}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("degenerate segment distance = %v, want 5", got)
	}
}
