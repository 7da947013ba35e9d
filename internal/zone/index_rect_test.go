package zone

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geo"
)

// randomField registers n random zones around home and returns the
// registry plus the raw circles in registration order.
func randomField(t testing.TB, n int, seed int64, spreadMeters float64) (*Registry, []geo.GeoCircle) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	r := NewRegistry()
	circles := make([]geo.GeoCircle, n)
	for i := range circles {
		circles[i] = geo.GeoCircle{
			Center: home.Offset(rng.Float64()*360, rng.Float64()*spreadMeters),
			R:      5 + rng.Float64()*120,
		}
		if _, err := r.Register("owner", circles[i]); err != nil {
			t.Fatal(err)
		}
	}
	return r, circles
}

// TestQueryRectMatchesLinear: the indexed rect query must return exactly
// what the linear oracle returns, over many random rectangles of varying
// size and position (including empty-result and all-result rects).
func TestQueryRectMatchesLinear(t *testing.T) {
	r, _ := randomField(t, 500, 21, 20000)
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	rng := rand.New(rand.NewSource(22))

	rects := []geo.Rect{
		geo.NewRect(home.Offset(225, 500), home.Offset(45, 500)),
		geo.NewRect(home.Offset(225, 50000), home.Offset(45, 50000)), // covers everything
		geo.NewRect(home.Offset(0, 90000), home.Offset(0, 95000)),    // far away: empty
	}
	for i := 0; i < 60; i++ {
		a := home.Offset(rng.Float64()*360, rng.Float64()*25000)
		b := a.Offset(rng.Float64()*360, 100+rng.Float64()*15000)
		rects = append(rects, geo.NewRect(a, b))
	}

	for i, rect := range rects {
		want := r.QueryRectLinear(rect)
		got := r.QueryRect(rect)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rect %d (%+v): indexed %d zones, linear %d zones", i, rect, len(got), len(want))
		}
	}
}

// TestQueryRectIncremental: results must stay consistent as zones
// register one at a time (the index is maintained, not rebuilt).
func TestQueryRectIncremental(t *testing.T) {
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	r := NewRegistry()
	rect := geo.NewRect(home.Offset(225, 3000), home.Offset(45, 3000))
	rng := rand.New(rand.NewSource(23))

	if got := r.QueryRect(rect); len(got) != 0 {
		t.Fatalf("empty registry returned %d zones", len(got))
	}
	for i := 0; i < 200; i++ {
		c := geo.GeoCircle{
			Center: home.Offset(rng.Float64()*360, rng.Float64()*8000),
			R:      10 + rng.Float64()*60,
		}
		if _, err := r.Register("o", c); err != nil {
			t.Fatal(err)
		}
		if i%20 != 0 {
			continue
		}
		want := r.QueryRectLinear(rect)
		got := r.QueryRect(rect)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d zones: indexed %d, linear %d", i+1, len(got), len(want))
		}
	}
}

// TestQueryRectAfterImport: a restored registry must answer rect queries
// identically to one built by live registration.
func TestQueryRectAfterImport(t *testing.T) {
	r, _ := randomField(t, 120, 24, 10000)
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	rect := geo.NewRect(home.Offset(225, 4000), home.Offset(45, 4000))

	restored := NewRegistry()
	for _, z := range r.All() {
		if err := restored.Restore(z); err != nil {
			t.Fatal(err)
		}
	}
	want := r.QueryRect(rect)
	got := restored.QueryRect(rect)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("imported registry: %d zones, original %d", len(got), len(want))
	}
	if !reflect.DeepEqual(got, restored.QueryRectLinear(rect)) {
		t.Error("imported registry diverges from its own linear oracle")
	}
}

// TestIndexAddMatchesBuild: an index grown by Add must answer Nearest
// and QueryRect like one built in a single batch.
func TestIndexAddMatchesBuild(t *testing.T) {
	_, circles := randomField(t, 150, 25, 9000)
	batch := NewIndex(circles, 0)
	grown := NewIndex(nil, 0)
	for _, c := range circles {
		grown.Add(c)
	}
	if batch.Len() != grown.Len() {
		t.Fatalf("len %d != %d", batch.Len(), grown.Len())
	}

	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 40; i++ {
		p := home.Offset(rng.Float64()*360, rng.Float64()*12000)
		bi, bd, err1 := batch.Nearest(p)
		gi, gd, err2 := grown.Nearest(p)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if bi != gi || bd != gd {
			t.Errorf("query %d: batch (%d, %f) grown (%d, %f)", i, bi, bd, gi, gd)
		}

		rect := geo.NewRect(p.Offset(225, 2000), p.Offset(45, 2000))
		if br, gr := batch.QueryRect(rect), grown.QueryRect(rect); !reflect.DeepEqual(br, gr) {
			t.Errorf("query %d: rect results diverge: batch %v grown %v", i, br, gr)
		}
	}
}
