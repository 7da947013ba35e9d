package poa

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
)

// quickSample is a generator type for testing/quick: it produces samples
// with physically meaningful ranges.
type quickSample Sample

// Generate implements quick.Generator.
func (quickSample) Generate(rng *rand.Rand, _ int) reflect.Value {
	s := quickSample{
		Pos: geo.LatLon{
			Lat: rng.Float64()*170 - 85,
			Lon: rng.Float64()*350 - 175,
		},
		AltMeters: rng.Float64() * 500,
		Time:      base.Add(time.Duration(rng.Int63n(int64(2 * time.Hour)))),
	}
	return reflect.ValueOf(s)
}

// TestQuickMarshalRoundTrip: Unmarshal(Marshal(s)) is the identity on
// canonical samples.
func TestQuickMarshalRoundTrip(t *testing.T) {
	fn := func(qs quickSample) bool {
		c := Sample(qs).Canon()
		back, err := UnmarshalSample(c.Marshal())
		return err == nil && back == c
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickCanonClose: canonicalisation moves a sample by less than the
// wire resolution (1e-7 deg ≈ 1.1 cm, 1 cm altitude, 1 ms time).
func TestQuickCanonClose(t *testing.T) {
	fn := func(qs quickSample) bool {
		s := Sample(qs)
		c := s.Canon()
		return math.Abs(c.Pos.Lat-s.Pos.Lat) <= 5e-8+1e-12 &&
			math.Abs(c.Pos.Lon-s.Pos.Lon) <= 5e-8+1e-12 &&
			math.Abs(c.AltMeters-s.AltMeters) <= 0.005+1e-12 &&
			c.Time.Sub(s.Time).Abs() <= time.Millisecond
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickSufficiencyMonotoneInTime: if a flyable pair is insufficient
// for a gap, it stays insufficient for any longer gap (larger travel budget
// can only reach more area). Equivalently, sufficiency is monotone downward
// in dt. A pair too far apart for its gap has no travel range and is
// insufficient by rule, whatever a longer gap would allow.
func TestQuickSufficiencyMonotoneInTime(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := Sample{Pos: ref.Offset(rng.Float64()*360, rng.Float64()*2000), Time: base}
		shortGap := time.Duration(1+rng.Int63n(10000)) * time.Millisecond
		longGap := shortGap + time.Duration(1+rng.Int63n(10000))*time.Millisecond
		pos2 := s1.Pos.Offset(rng.Float64()*360, rng.Float64()*100)
		z := geo.GeoCircle{Center: ref.Offset(rng.Float64()*360, rng.Float64()*3000), R: 1 + rng.Float64()*300}

		short := Sample{Pos: pos2, Time: base.Add(shortGap)}
		long := Sample{Pos: pos2, Time: base.Add(longGap)}
		if geo.HaversineMeters(s1.Pos, pos2) > vmax*shortGap.Seconds() {
			return true
		}
		for _, mode := range []TestMode{Conservative, Exact} {
			if !PairSufficient(s1, short, z, vmax, mode) && PairSufficient(s1, long, z, vmax, mode) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSufficiencyMonotoneInRadius: growing a zone can only turn
// sufficient pairs insufficient, never the reverse.
func TestQuickSufficiencyMonotoneInRadius(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := Sample{Pos: ref.Offset(rng.Float64()*360, rng.Float64()*2000), Time: base}
		s2 := Sample{
			Pos:  s1.Pos.Offset(rng.Float64()*360, rng.Float64()*100),
			Time: base.Add(time.Duration(1+rng.Int63n(10000)) * time.Millisecond),
		}
		center := ref.Offset(rng.Float64()*360, rng.Float64()*3000)
		small := geo.GeoCircle{Center: center, R: 1 + rng.Float64()*200}
		big := geo.GeoCircle{Center: center, R: small.R + rng.Float64()*200}

		for _, mode := range []TestMode{Conservative, Exact} {
			if !PairSufficient(s1, s2, small, vmax, mode) && PairSufficient(s1, s2, big, vmax, mode) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickBatchRoundTrip: UnmarshalBatch(MarshalBatch(xs)) == xs for
// canonical samples.
func TestQuickBatchRoundTrip(t *testing.T) {
	fn := func(raw []quickSample) bool {
		in := make([]Sample, len(raw))
		for i, qs := range raw {
			in[i] = Sample(qs).Canon()
		}
		out, err := UnmarshalBatch(MarshalBatch(in))
		if err != nil {
			return false
		}
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickInsufficientCountMatchesVerify: the Fig 8-(c) counter and the
// conservative verifier agree on which pairs fail when a single zone is in
// force.
func TestQuickInsufficientCountMatchesVerify(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		samples := make([]Sample, n)
		pos := ref
		at := base
		for i := range samples {
			pos = pos.Offset(rng.Float64()*360, rng.Float64()*50)
			at = at.Add(time.Duration(1+rng.Int63n(5000)) * time.Millisecond)
			samples[i] = Sample{Pos: pos, Time: at}
		}
		z := geo.GeoCircle{Center: ref.Offset(rng.Float64()*360, rng.Float64()*500), R: 1 + rng.Float64()*100}

		counts := CountInsufficient(samples, []geo.GeoCircle{z}, vmax)
		rep, err := VerifySufficiency(samples, []geo.GeoCircle{z}, vmax, Conservative)
		if err != nil {
			return false
		}
		return counts[len(counts)-1] == rep.InsufficientPairs()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// planarPair projects a pair around s1 and builds its travel ellipse, the
// way the Exact test always has.
func planarPair(s1, s2 Sample, vmaxMS float64) (*geo.Projection, geo.TravelEllipse) {
	dt := s2.Time.Sub(s1.Time).Seconds()
	if dt < 0 {
		dt = 0
	}
	pr := geo.NewProjection(s1.Pos)
	return pr, geo.NewTravelEllipse(pr.ToLocal(s1.Pos), pr.ToLocal(s2.Pos), dt, vmaxMS)
}

// pairSufficientByMinimisation is the Exact test as it was defined before
// the planar lower bound went first: the focal sum is minimised over the
// zone disk for every (pair, zone), and an empty ellipse proves nothing.
// VerifySufficiency and PairSufficient must keep returning exactly this.
func pairSufficientByMinimisation(s1, s2 Sample, z geo.GeoCircle, vmaxMS float64) bool {
	pr, e := planarPair(s1, s2, vmaxMS)
	return !e.Empty() && e.MinFocalSumOnDisk(z.ToLocal(pr)) > e.SumLimit
}

// TestQuickExactMatchesNestedMinimisation is the licence for calling the
// bound-first, once-per-pair Exact scan verdict-preserving: over random
// traces and zone fields the Report's Insufficiencies — order, PairIndex,
// ZoneIndex — equal the nested minimise-everything scan, at mid latitude,
// at 69.5° N (where a degree of longitude is a third of one of latitude)
// and across the ±180° meridian (where the projection takes the longitude
// difference the short way round). Every trace carries a speed-infeasible
// pair, insufficient against every zone, and a pair 1 ns apart; exact zero and negative gaps, which VerifySufficiency rejects as
// unchronological, go through PairSufficient.
func TestQuickExactMatchesNestedMinimisation(t *testing.T) {
	var insufficient, boundCleared, minimisationCleared int
	for _, home := range []geo.LatLon{
		{Lat: 40.1106, Lon: -88.2073},
		{Lat: 69.5, Lon: 19.0},
		{Lat: -17.0, Lon: 179.9995},
	} {
		fn := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(59)
			samples := make([]Sample, n)
			pos, at := home.Offset(rng.Float64()*360, rng.Float64()*30), base
			heading := rng.Float64() * 360
			jump, twin := rng.Intn(n), rng.Intn(n)
			for i := range samples {
				gap := time.Duration(200+rng.Int63n(4800)) * time.Millisecond
				step := rng.Float64() * 20 * gap.Seconds()
				switch i {
				case jump: // further than vmax allows: an empty ellipse
					step = (vmax + 1 + rng.Float64()*50) * gap.Seconds()
				case twin: // same place, the smallest legal gap
					gap, step = time.Nanosecond, 0
				}
				heading += rng.Float64()*60 - 30
				pos, at = pos.Offset(heading, step), at.Add(gap)
				samples[i] = Sample{Pos: pos, Time: at}
			}
			zones := make([]geo.GeoCircle, rng.Intn(41))
			for i := range zones {
				zones[i] = geo.GeoCircle{
					Center: samples[rng.Intn(n)].Pos.Offset(rng.Float64()*360, rng.Float64()*200),
					R:      1 + rng.Float64()*60,
				}
			}

			var want []Insufficiency
			for i := 0; i+1 < n; i++ {
				s1, s2 := samples[i], samples[i+1]
				for zi, z := range zones {
					pr, e := planarPair(s1, s2, vmax)
					switch {
					case !pairSufficientByMinimisation(s1, s2, z, vmax):
						insufficient++
						want = append(want, Insufficiency{PairIndex: i, ZoneIndex: zi})
					case e.DisjointFromDiskConservative(z.ToLocal(pr)):
						boundCleared++
					default:
						minimisationCleared++
					}
					// The same pair with its gap collapsed or reversed.
					for _, s := range []Sample{{Pos: s2.Pos, Time: s1.Time}, {Pos: s1.Pos, Time: s1.Time.Add(-time.Second)}} {
						if PairSufficient(s1, s, z, vmax, Exact) != pairSufficientByMinimisation(s1, s, z, vmax) {
							t.Errorf("seed %d pair %d zone %d: PairSufficient diverges at Δt = %v", seed, i, zi, s.Time.Sub(s1.Time))
							return false
						}
					}
				}
			}
			rep, err := VerifySufficiency(samples, zones, vmax, Exact)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
			if rep.Pairs != n-1 || !reflect.DeepEqual(rep.Insufficiencies, want) {
				t.Errorf("seed %d at %v: Report diverges from the nested minimisation:\n got %+v\nwant %+v", seed, home, rep.Insufficiencies, want)
				return false
			}
			return true
		}
		if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	}
	// All three ways a (pair, zone) can come out must have been drawn,
	// or the comparison above proved less than it says.
	if insufficient == 0 || boundCleared == 0 || minimisationCleared == 0 {
		t.Errorf("vacuous: %d insufficient, %d cleared by the bound, %d cleared only by the minimisation",
			insufficient, boundCleared, minimisationCleared)
	}
	t.Logf("%d insufficient, %d cleared by the bound, %d cleared only by the minimisation", insufficient, boundCleared, minimisationCleared)
}
