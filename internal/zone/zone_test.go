package zone

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

var (
	urbana = geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	t0     = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
)

func TestRegistryRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	id, err := r.Register("alice", geo.GeoCircle{Center: urbana, R: 100})
	if err != nil {
		t.Fatal(err)
	}
	z, ok := r.Get(id)
	if !ok {
		t.Fatal("registered zone not found")
	}
	if z.Owner != "alice" || z.Circle.R != 100 {
		t.Errorf("zone = %+v", z)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if _, ok := r.Get("zone-9999"); ok {
		t.Error("missing zone found")
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	bad := []geo.GeoCircle{
		{Center: urbana, R: 0},
		{Center: urbana, R: -5},
		{Center: geo.LatLon{Lat: 91, Lon: 0}, R: 10},
	}
	for _, c := range bad {
		if _, err := r.Register("x", c); !errors.Is(err, ErrInvalidZone) {
			t.Errorf("Register(%+v) err = %v, want ErrInvalidZone", c, err)
		}
	}
}

func TestRegistryIDsUniqueAndOrdered(t *testing.T) {
	r := NewRegistry()
	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		id, err := r.Register("o", geo.GeoCircle{Center: urbana.Offset(float64(i), 100), R: 10})
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	all := r.All()
	if len(all) != 50 {
		t.Fatalf("All() returned %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("All() not in registration order")
		}
	}
}

func TestRegistryOnAdd(t *testing.T) {
	r := NewRegistry()
	var observed []NFZ
	r.SetOnAdd(func(z NFZ) error {
		observed = append(observed, z)
		// The hook runs outside the registry lock: reads must not
		// deadlock (the auditor's WAL compaction snapshots from here).
		_ = r.Len()
		return nil
	})

	id, err := r.Register("alice", geo.GeoCircle{Center: urbana, R: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 || observed[0].ID != id || observed[0].Owner != "alice" {
		t.Fatalf("hook observed %+v, want the registered zone %q", observed, id)
	}

	// Restore replays already-durable state and must not re-fire the hook.
	if err := r.Restore(NFZ{ID: "zone-0009", Circle: geo.GeoCircle{Center: urbana.Offset(90, 500), R: 50}}); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 {
		t.Fatalf("hook fired on Restore (observed %d zones)", len(observed))
	}

	// A hook failure propagates to the registering caller.
	hookErr := errors.New("wal down")
	r.SetOnAdd(func(NFZ) error { return hookErr })
	if _, err := r.Register("bob", geo.GeoCircle{Center: urbana.Offset(180, 500), R: 10}); !errors.Is(err, hookErr) {
		t.Errorf("Register err = %v, want the hook error", err)
	}
}

func TestRegistryRestore(t *testing.T) {
	r := NewRegistry()
	z := NFZ{ID: "zone-0007", Circle: geo.GeoCircle{Center: urbana, R: 100}, Owner: "alice"}
	if err := r.Restore(z); err != nil {
		t.Fatal(err)
	}
	// Idempotent: replaying the same record is a no-op, not a duplicate.
	if err := r.Restore(z); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after duplicate restore, want 1", r.Len())
	}
	// The ID sequence continues past the restored zone.
	id, err := r.Register("bob", geo.GeoCircle{Center: urbana.Offset(90, 500), R: 10})
	if err != nil {
		t.Fatal(err)
	}
	if id != "zone-0008" {
		t.Errorf("next id = %q, want zone-0008", id)
	}
	// Restored zones are indexed for rectangle queries.
	hits := r.QueryRect(geo.NewRect(urbana.Offset(225, 1000), urbana.Offset(45, 1000)))
	if len(hits) != 2 {
		t.Errorf("QueryRect found %d zones, want 2", len(hits))
	}
	if err := r.Restore(NFZ{ID: "zone-bad"}); err == nil {
		t.Error("invalid geometry accepted by Restore")
	}
}

func TestRegisterPolygon(t *testing.T) {
	r := NewRegistry()
	pr := geo.NewProjection(urbana)
	pg := geo.Polygon{Vertices: []geo.Point{{X: -30, Y: -40}, {X: 30, Y: -40}, {X: 30, Y: 40}, {X: -30, Y: 40}}}
	id, err := r.RegisterPolygon("poly-owner", pr, pg)
	if err != nil {
		t.Fatal(err)
	}
	z, _ := r.Get(id)
	if math.Abs(z.Circle.R-50) > 0.5 {
		t.Errorf("polygon SEC radius = %v, want 50", z.Circle.R)
	}
	if d := geo.HaversineMeters(z.Circle.Center, urbana); d > 1 {
		t.Errorf("polygon SEC centre %v m from origin", d)
	}

	if _, err := r.RegisterPolygon("x", pr, geo.Polygon{Vertices: []geo.Point{{}, {X: 1}}}); err == nil {
		t.Error("degenerate polygon accepted")
	}
}

func TestQueryRect(t *testing.T) {
	r := NewRegistry()
	inside, err := r.Register("a", geo.GeoCircle{Center: urbana, R: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Centre outside the rect but the 2 km radius reaches in.
	straddling, err := r.Register("b", geo.GeoCircle{Center: urbana.Offset(0, 6000), R: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("c", geo.GeoCircle{Center: urbana.Offset(0, 50000), R: 100}); err != nil {
		t.Fatal(err)
	}

	rect := geo.NewRect(urbana.Offset(225, 7000), urbana.Offset(45, 7000))
	got := r.QueryRect(rect)
	if len(got) != 2 {
		t.Fatalf("QueryRect returned %d zones, want 2", len(got))
	}
	ids := map[string]bool{got[0].ID: true, got[1].ID: true}
	if !ids[inside] || !ids[straddling] {
		t.Errorf("QueryRect = %v, want {%s, %s}", ids, inside, straddling)
	}

	circles := Circles(got)
	if len(circles) != 2 || circles[0] != got[0].Circle {
		t.Error("Circles extraction broken")
	}
}

// TestQueryRectHighLatitude: a zone whose disk reaches into a tall box at
// high latitude across the box's east side near its north edge is
// returned, by the grid index and the linear scan alike.
func TestQueryRectHighLatitude(t *testing.T) {
	r := NewRegistry()
	corner := geo.LatLon{Lat: 75, Lon: 11}
	id, err := r.Register("north", geo.GeoCircle{Center: corner.Offset(90, 950), R: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rect := geo.NewRect(geo.LatLon{Lat: 60, Lon: 10}, corner)
	for name, got := range map[string][]NFZ{"QueryRect": r.QueryRect(rect), "QueryRectLinear": r.QueryRectLinear(rect)} {
		if len(got) != 1 || got[0].ID != id {
			t.Errorf("%s = %v, want [%s]", name, got, id)
		}
	}
}

func TestNearestLinear(t *testing.T) {
	zs := []geo.GeoCircle{
		{Center: urbana.Offset(0, 1000), R: 10},
		{Center: urbana.Offset(90, 500), R: 400}, // boundary only 100 m away
		{Center: urbana.Offset(180, 2000), R: 10},
	}
	idx, dist, err := NearestLinear(zs, urbana)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Errorf("nearest = %d, want 1 (big radius wins)", idx)
	}
	if math.Abs(dist-100) > 2 {
		t.Errorf("dist = %v, want ~100", dist)
	}

	if _, _, err := NearestLinear(nil, urbana); !errors.Is(err, ErrNoZones) {
		t.Errorf("err = %v, want ErrNoZones", err)
	}
}

// nearestRingSearch is the ring search Index.Nearest used before it was
// bounded to the populated cell box, kept verbatim as the reference the
// bounded search must reproduce: every ring from 0 outward, every cell of
// each ring, until no unexplored ring can hold a closer boundary. It does
// not terminate sensibly for a query more than 10,000 km from every zone.
func nearestRingSearch(idx *Index, p geo.LatLon) (int, float64) {
	lp := idx.pr.ToLocal(p)
	center := idx.cellOf(lp)
	bestIdx, bestDist := -1, math.Inf(1)
	for ring := 0; ; ring++ {
		ringMin := float64(ring-1) * idx.cellSize
		if ring == 0 {
			ringMin = 0
		}
		if bestIdx >= 0 && ringMin-idx.maxR > bestDist {
			break
		}
		cells := [][2]int{center}
		if ring > 0 {
			cells = cells[:0]
			for dx := -ring; dx <= ring; dx++ {
				cells = append(cells, [2]int{center[0] + dx, center[1] - ring}, [2]int{center[0] + dx, center[1] + ring})
			}
			for dy := -ring + 1; dy <= ring-1; dy++ {
				cells = append(cells, [2]int{center[0] - ring, center[1] + dy}, [2]int{center[0] + ring, center[1] + dy})
			}
		}
		for _, c := range cells {
			for _, zi := range idx.cells[c] {
				if d := idx.local[zi].Dist(lp) - idx.zones[zi].R; d < bestDist {
					bestIdx, bestDist = zi, d
				}
			}
		}
	}
	return bestIdx, idx.zones[bestIdx].BoundaryDistMeters(p)
}

// TestIndexMatchesLinear cross-validates the grid index against the linear
// scan (distance) and against the unbounded ring search it replaced (zone
// index and distance, bit for bit) on random layouts and query points and
// on the layouts that shape the bounded search: one 5-mile zone, one- to
// three-zone indexes, and one huge zone beside many small ones.
func TestIndexMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(name string, zs []geo.GeoCircle, idx *Index, p geo.LatLon) {
		t.Helper()
		li, ld, err := NearestLinear(zs, p)
		if err != nil {
			t.Fatal(err)
		}
		gi, gd, err := idx.Nearest(p)
		if err != nil {
			t.Fatal(err)
		}
		// Ties between different zones at equal distance are legal
		// against the linear scan; compare distances.
		if math.Abs(ld-gd) > 0.5 {
			t.Fatalf("%s: linear (%d, %.2f) vs grid (%d, %.2f) at %v", name, li, ld, gi, gd, p)
		}
		if ri, rd := nearestRingSearch(idx, p); gi != ri || gd != rd {
			t.Fatalf("%s: ring search (%d, %v) vs bounded (%d, %v) at %v", name, ri, rd, gi, gd, p)
		}
	}
	field := func(n int, spread, maxR float64) []geo.GeoCircle {
		zs := make([]geo.GeoCircle, n)
		for i := range zs {
			zs[i] = geo.GeoCircle{
				Center: urbana.Offset(rng.Float64()*360, rng.Float64()*spread),
				R:      1 + rng.Float64()*maxR,
			}
		}
		return zs
	}

	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(200)
		if trial < 9 {
			n = 1 + trial%3
		}
		zs := field(n, 5000, 300)
		idx := NewIndex(zs, 0)
		if idx.Len() != n {
			t.Fatalf("index Len = %d, want %d", idx.Len(), n)
		}
		for q := 0; q < 50; q++ {
			check(fmt.Sprintf("trial %d", trial), zs, idx, urbana.Offset(rng.Float64()*360, rng.Float64()*6000))
		}
	}

	// One 5-mile zone: the query's cell is ~40 rings from the only
	// populated cell whether the drone is inside, just outside or far off.
	airport := []geo.GeoCircle{{Center: urbana, R: geo.MilesToMeters(5)}}
	idx := NewIndex(airport, 0)
	for _, out := range []float64{-6000, -airport[0].R, 30, 12000} {
		for q := 0; q < 20; q++ {
			check(fmt.Sprintf("airport %+.0f m", out), airport, idx, urbana.Offset(rng.Float64()*360, airport[0].R+out))
		}
	}

	// One 8 km zone inflates maxR for 200 small ones: the search cannot
	// stop on distance for ~40 rings and must stop on the box instead.
	mixed := append(field(200, 3000, 60), geo.GeoCircle{Center: urbana.Offset(45, 9000), R: 8000})
	idx = NewIndex(mixed, 0)
	for q := 0; q < 200; q++ {
		check("mixed", mixed, idx, urbana.Offset(rng.Float64()*360, rng.Float64()*20000))
	}

	// Two zones exactly equidistant from the query, in different cells
	// of the same ring (the pitch is their planar offset, so they sit in
	// cells +1 and -1): visiting order decides, and it must be the old one.
	twins := []geo.GeoCircle{
		{Center: geo.LatLon{Lat: 40.25, Lon: -88.25}, R: 100},
		{Center: geo.LatLon{Lat: 40.25, Lon: -88.75}, R: 100},
	}
	idx = NewIndex(twins, NewIndex(twins, 0).local[0].X)
	if idx.cellOf(idx.local[0]) != [2]int{1, 0} || idx.cellOf(idx.local[1]) != [2]int{-1, 0} {
		t.Fatalf("twins fixture: cells %v %v", idx.cellOf(idx.local[0]), idx.cellOf(idx.local[1]))
	}
	check("twins", twins, idx, geo.LatLon{Lat: 40.25, Lon: -88.5})

	// A query further from every zone than the old search's ~10,000 km
	// "paranoia bound" (a receiver's no-fix 0,0 against a Sydney zone) ran
	// ~10^10 cell lookups and then indexed zones[-1]. One ring now.
	sydney := []geo.GeoCircle{{Center: geo.LatLon{Lat: -33.8688, Lon: 151.2093}, R: 500}}
	idx = NewIndex(sydney, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		gi, gd, err := idx.Nearest(geo.LatLon{})
		if _, ld, _ := NearestLinear(sydney, geo.LatLon{}); err != nil || gi != 0 || gd != ld {
			t.Errorf("no-fix query: (%d, %v, %v), want (0, %v, nil)", gi, gd, err, ld)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Nearest did not answer a far-away query within 1 s")
	}
}

func TestIndexEmpty(t *testing.T) {
	idx := NewIndex(nil, 0)
	if _, _, err := idx.Nearest(urbana); !errors.Is(err, ErrNoZones) {
		t.Errorf("err = %v, want ErrNoZones", err)
	}
}

func TestIndexResidentialScenario(t *testing.T) {
	sc, err := trace.NewResidentialScenario(trace.DefaultResidentialConfig(t0))
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex(sc.Zones, 0)

	// Along the whole route the index must agree with the linear scan.
	for dt := time.Duration(0); dt <= sc.Route.Duration(); dt += 2 * time.Second {
		p := sc.Route.Position(t0.Add(dt)).Pos
		_, ld, err := NearestLinear(sc.Zones, p)
		if err != nil {
			t.Fatal(err)
		}
		_, gd, err := idx.Nearest(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ld-gd) > 0.5 {
			t.Fatalf("at %v: linear %.2f vs grid %.2f", dt, ld, gd)
		}
	}
}

func TestIndexSmallCells(t *testing.T) {
	// Tiny cells force many-ring searches; results must stay correct.
	zs := []geo.GeoCircle{
		{Center: urbana.Offset(0, 3000), R: 20},
		{Center: urbana.Offset(90, 200), R: 5},
	}
	idx := NewIndex(zs, 10)
	gi, gd, err := idx.Nearest(urbana)
	if err != nil {
		t.Fatal(err)
	}
	if gi != 1 {
		t.Errorf("nearest = %d, want 1", gi)
	}
	if math.Abs(gd-195) > 2 {
		t.Errorf("dist = %v, want ~195", gd)
	}
}
