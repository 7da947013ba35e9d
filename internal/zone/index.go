package zone

import (
	"math"
	"sort"

	"repro/internal/geo"
)

// Index is a uniform-grid spatial index over a zone set. It serves two
// callers with different shapes:
//
//   - The Adapter builds one per flight from the zone query response and
//     calls Nearest once per GPS update (up to 5 Hz), so lookup cost
//     matters when a residential area holds hundreds of zones; the grid
//     turns the O(n) scan into a ring search over the populated cells
//     near the drone, without allocating.
//   - The Auditor's Registry keeps one incrementally up to date as zones
//     register (Add) and answers navigation-rectangle queries through
//     QueryRect, so zonesForTrace stays sublinear in registry size.
//
// Index is not itself safe for concurrent mutation; the Registry guards
// it with its own lock, and per-flight indexes are read-only after build.
type Index struct {
	zones    []geo.GeoCircle
	pr       *geo.Projection
	cellSize float64
	cells    map[[2]int][]int // cell coordinate -> zone indices
	maxR     float64
	// local caches the projected centres so queries do not re-project.
	local []geo.Point
	// Populated cell bounding box, so neither rect queries nor the
	// nearest-zone ring search enumerate the empty plane between a query
	// and the data.
	minCell, maxCell [2]int
}

// DefaultCellSizeMeters is a reasonable grid pitch for residential zone
// densities (tens of metres between houses).
const DefaultCellSizeMeters = 200

// NewIndex builds a grid index over the zones. cellSizeMeters <= 0 selects
// the default pitch.
func NewIndex(zones []geo.GeoCircle, cellSizeMeters float64) *Index {
	if cellSizeMeters <= 0 {
		cellSizeMeters = DefaultCellSizeMeters
	}
	idx := &Index{
		zones:    make([]geo.GeoCircle, 0, len(zones)),
		local:    make([]geo.Point, 0, len(zones)),
		cellSize: cellSizeMeters,
		cells:    make(map[[2]int][]int),
	}
	if len(zones) == 0 {
		return idx
	}

	// Project around the centroid of the zone centres.
	var lat, lon float64
	for _, z := range zones {
		lat += z.Center.Lat
		lon += z.Center.Lon
	}
	idx.pr = geo.NewProjection(geo.LatLon{Lat: lat / float64(len(zones)), Lon: lon / float64(len(zones))})

	for _, z := range zones {
		idx.Add(z)
	}
	return idx
}

// Add appends one zone to the index and returns its position. The first
// Add on an empty index anchors the projection at that zone's centre; the
// equirectangular projection is linear, so anchor choice affects only the
// cell layout, never query results.
func (idx *Index) Add(z geo.GeoCircle) int {
	if idx.pr == nil {
		idx.pr = geo.NewProjection(z.Center)
	}
	i := len(idx.zones)
	idx.zones = append(idx.zones, z)
	p := idx.pr.ToLocal(z.Center)
	idx.local = append(idx.local, p)
	c := idx.cellOf(p)
	idx.cells[c] = append(idx.cells[c], i)
	if z.R > idx.maxR {
		idx.maxR = z.R
	}
	if i == 0 {
		idx.minCell, idx.maxCell = c, c
	} else {
		idx.minCell[0] = min(idx.minCell[0], c[0])
		idx.minCell[1] = min(idx.minCell[1], c[1])
		idx.maxCell[0] = max(idx.maxCell[0], c[0])
		idx.maxCell[1] = max(idx.maxCell[1], c[1])
	}
	return i
}

// Len returns the number of indexed zones.
func (idx *Index) Len() int { return len(idx.zones) }

func (idx *Index) cellOf(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / idx.cellSize)), int(math.Floor(p.Y / idx.cellSize))}
}

// Nearest returns the index of the zone whose boundary is closest to p and
// that signed boundary distance. It walks square rings of cells outward
// from p's cell, but only the rings that can hold a zone: it starts at the
// first ring that reaches the populated cell box, visits only the cells of
// a ring that lie inside the box, and stops once no unexplored ring can
// hold a closer boundary or the box is covered. Cost therefore follows the
// zones near p, not the distance to them: a point 30 m outside a 5-mile
// zone, or an ocean away from every zone, is answered in one ring. Rings
// and the cells within a ring are visited in a fixed order and the first
// of several equally near zones wins.
func (idx *Index) Nearest(p geo.LatLon) (int, float64, error) {
	if len(idx.zones) == 0 {
		return 0, 0, ErrNoZones
	}
	lp := idx.pr.ToLocal(p)
	c := idx.cellOf(lp)
	lo, hi := idx.minCell, idx.maxCell

	bestIdx, bestDist := -1, math.Inf(1)
	visit := func(cx, cy int) {
		for _, zi := range idx.cells[[2]int{cx, cy}] {
			// Planar distance is accurate at ring-search scale; recompute the
			// final answer with haversine below for exactness.
			d := idx.local[zi].Dist(lp) - idx.zones[zi].R
			if d < bestDist {
				bestIdx, bestDist = zi, d
			}
		}
	}

	// Chebyshev cell distance from c to the nearest and to the farthest
	// cell of the box: the rings in between are the only populated ones.
	first := max(lo[0]-c[0], c[0]-hi[0], lo[1]-c[1], c[1]-hi[1], 0)
	last := max(c[0]-lo[0], hi[0]-c[0], c[1]-lo[1], hi[1]-c[1])
	for ring := first; ring <= last; ring++ {
		// Every centre in this ring is at least ring-1 cells away.
		if bestIdx >= 0 && float64(ring-1)*idx.cellSize-idx.maxR > bestDist {
			break
		}
		// South and north rows west to east, then the west and east
		// columns between them, each clipped to the box. ring >= first
		// already puts south and west at or below hi and north and east at
		// or above lo, so each side has one bound left to check.
		south, north := c[1]-ring, c[1]+ring
		for x := max(c[0]-ring, lo[0]); x <= min(c[0]+ring, hi[0]); x++ {
			if lo[1] <= south {
				visit(x, south)
			}
			if north <= hi[1] && ring > 0 {
				visit(x, north)
			}
		}
		west, east := c[0]-ring, c[0]+ring
		for y := max(south+1, lo[1]); y <= min(north-1, hi[1]); y++ {
			if lo[0] <= west {
				visit(west, y)
			}
			if east <= hi[0] {
				visit(east, y)
			}
		}
	}

	// Refine with the geodesic distance for the reported value.
	return bestIdx, idx.zones[bestIdx].BoundaryDistMeters(p), nil
}

// QueryRect returns the positions (ascending) of every zone whose
// boundary reaches into the rectangle, under the registry's query
// semantics: zone z matches iff rect.Expand(z.R).Contains(z.Center).
//
// The grid prunes candidates instead of scanning all zones: any matching
// centre must lie inside rect.Expand(maxR) (Expand is monotone in its
// margin), and because the equirectangular projection is separable and
// monotone in lat and lon, that degree-rectangle maps to exactly a local
// rectangle — so the candidate cells are a simple 2-D cell range. Each
// candidate then gets the exact per-zone test, keeping results identical
// to the linear scan.
func (idx *Index) QueryRect(rect geo.Rect) []int {
	if len(idx.zones) == 0 {
		return nil
	}
	outer := rect.Expand(idx.maxR)
	lo := idx.cellOf(idx.pr.ToLocal(geo.LatLon{Lat: outer.MinLat, Lon: outer.MinLon}))
	hi := idx.cellOf(idx.pr.ToLocal(geo.LatLon{Lat: outer.MaxLat, Lon: outer.MaxLon}))
	// Clamp to the populated bounding box so a continent-sized query
	// rectangle costs O(populated cells), not O(area).
	lo[0], lo[1] = max(lo[0], idx.minCell[0]), max(lo[1], idx.minCell[1])
	hi[0], hi[1] = min(hi[0], idx.maxCell[0]), min(hi[1], idx.maxCell[1])
	if lo[0] > hi[0] || lo[1] > hi[1] {
		return nil
	}

	var out []int
	match := func(zi int) {
		z := idx.zones[zi]
		if rect.Expand(z.R).Contains(z.Center) {
			out = append(out, zi)
		}
	}
	// Two ways to enumerate candidates; pick the cheaper one.
	span := (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)
	if span <= len(idx.cells) {
		for cx := lo[0]; cx <= hi[0]; cx++ {
			for cy := lo[1]; cy <= hi[1]; cy++ {
				for _, zi := range idx.cells[[2]int{cx, cy}] {
					match(zi)
				}
			}
		}
	} else {
		for c, zis := range idx.cells {
			if c[0] < lo[0] || c[0] > hi[0] || c[1] < lo[1] || c[1] > hi[1] {
				continue
			}
			for _, zi := range zis {
				match(zi)
			}
		}
	}
	sort.Ints(out)
	return out
}
