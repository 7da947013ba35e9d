package geo

import "math"

// TravelEllipse is the possible-travel-range of a drone between two GPS
// samples (paper §IV-C1): the set of points p with
//
//	dist(p, F1) + dist(p, F2) <= SumLimit
//
// where F1, F2 are the two sample locations and SumLimit = vmax * (t2 - t1).
// When SumLimit < dist(F1, F2) the ellipse is empty (the samples themselves
// are inconsistent with the speed bound).
type TravelEllipse struct {
	F1       Point   `json:"f1"`
	F2       Point   `json:"f2"`
	SumLimit float64 `json:"sumLimit"` // metres
}

// NewTravelEllipse builds the possible-travel-range between two positions
// observed dt seconds apart under the speed bound vmax (m/s).
func NewTravelEllipse(f1, f2 Point, dt, vmax float64) TravelEllipse {
	return TravelEllipse{F1: f1, F2: f2, SumLimit: vmax * dt}
}

// Empty reports whether the ellipse contains no points, i.e. the two
// samples could not both be genuine under the speed bound.
func (e TravelEllipse) Empty() bool {
	return e.SumLimit < e.F1.Dist(e.F2)
}

// Contains reports whether p lies inside or on the ellipse.
func (e TravelEllipse) Contains(p Point) bool {
	return p.Dist(e.F1)+p.Dist(e.F2) <= e.SumLimit
}

// focalSum is the convex function f(p) = d(p,F1) + d(p,F2) whose sub-level
// set at SumLimit is the ellipse.
func (e TravelEllipse) focalSum(p Point) float64 {
	return p.Dist(e.F1) + p.Dist(e.F2)
}

// MinFocalSumOnDisk returns the minimum of d(p,F1)+d(p,F2) over the disk c.
// The ellipse intersects the disk iff this minimum is <= SumLimit.
//
// The focal-sum is convex, so:
//   - if the disk meets the focal segment [F1,F2], the minimum is the
//     inter-focal distance;
//   - otherwise the constrained minimum lies on the disk boundary, where the
//     restriction of a convex function to a circle is circularly unimodal,
//     so a coarse scan followed by golden-section refinement converges.
func (e TravelEllipse) MinFocalSumOnDisk(c Circle) float64 {
	if segmentDistToPoint(e.F1, e.F2, c.Center) <= c.R {
		return e.F1.Dist(e.F2)
	}
	return minOnCircle(e.focalSum, c)
}

// IntersectsDisk reports whether the ellipse and the disk share any point.
// An empty ellipse intersects nothing.
//
// The planar lower bound goes first: every point p of the disk has
// d(p,Fi) >= Di (DisjointFromDiskConservative), so D1+D2 > SumLimit means
// the focal-sum minimum over the disk exceeds SumLimit too. Bound and
// minimisation measure the same points in the same plane, so the
// implication is the triangle inequality and the answer is the
// minimisation's own; only disks the bound cannot clear pay for it.
func (e TravelEllipse) IntersectsDisk(c Circle) bool {
	if e.DisjointFromDiskConservative(c) || e.Empty() {
		return false
	}
	return e.MinFocalSumOnDisk(c) <= e.SumLimit
}

// DisjointFromDiskConservative implements the paper's boundary-distance
// test: the ellipse is certainly disjoint from the disk when
//
//	D1 + D2 > SumLimit, with Di = dist(Fi, center) - r.
//
// By the triangle inequality every point p in the disk has
// d(p,Fi) >= Di, so D1+D2 > SumLimit implies disjointness. The converse
// does not hold: the test may report "possibly intersecting" for some
// disjoint pairs, which only makes the sampler more eager (safe).
func (e TravelEllipse) DisjointFromDiskConservative(c Circle) bool {
	d1 := c.BoundaryDist(e.F1)
	d2 := c.BoundaryDist(e.F2)
	return d1+d2 > e.SumLimit
}

// segmentDistToPoint returns the distance from point p to the segment [a,b].
func segmentDistToPoint(a, b, p Point) float64 {
	ab := b.Sub(a)
	ap := p.Sub(a)
	den := ab.X*ab.X + ab.Y*ab.Y
	if den == 0 {
		return a.Dist(p)
	}
	t := (ap.X*ab.X + ap.Y*ab.Y) / den
	t = math.Max(0, math.Min(1, t))
	proj := a.Add(ab.Scale(t))
	return proj.Dist(p)
}

// minOnCircle minimises f over the boundary of c, assuming the restriction
// of f to the circle is circularly unimodal (true for convex f whose
// unconstrained minimiser lies outside c). It scans a coarse grid to
// bracket the minimum, then refines with golden-section search.
func minOnCircle(f func(Point) float64, c Circle) float64 {
	const grid = 64
	at := func(theta float64) float64 {
		return f(Point{
			X: c.Center.X + c.R*math.Cos(theta),
			Y: c.Center.Y + c.R*math.Sin(theta),
		})
	}

	best, bestTheta := math.Inf(1), 0.0
	step := 2 * math.Pi / grid
	for i := 0; i < grid; i++ {
		theta := float64(i) * step
		if v := at(theta); v < best {
			best, bestTheta = v, theta
		}
	}

	// Golden-section refine within one grid step on either side.
	lo, hi := bestTheta-step, bestTheta+step
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := at(x1), at(x2)
	for i := 0; i < 60 && hi-lo > 1e-12; i++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = at(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = at(x2)
		}
	}
	return math.Min(best, math.Min(f1, f2))
}
