package poa

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

// vmax is the FAA 100 mph bound in m/s.
var vmax = geo.MaxDroneSpeedMPS

// zoneAt builds a circular NFZ at a bearing/distance from a reference
// point.
func zoneAt(ref geo.LatLon, bearing, distMeters, radiusMeters float64) geo.GeoCircle {
	return geo.GeoCircle{Center: ref.Offset(bearing, distMeters), R: radiusMeters}
}

func TestPairSufficientFarZone(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	// Two samples 1 s apart, zone 10 km away with 100 m radius: the
	// ellipse (max span ~45 m) cannot reach it.
	s1 := Sample{Pos: ref, Time: base}
	s2 := Sample{Pos: ref.Offset(90, 10), Time: base.Add(time.Second)}
	z := zoneAt(ref, 0, 10000, 100)

	for _, mode := range []TestMode{Conservative, Exact} {
		if !PairSufficient(s1, s2, z, vmax, mode) {
			t.Errorf("mode %v: far zone should be sufficient", mode)
		}
	}
}

func TestPairSufficientNearZone(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	// Two samples 10 s apart (travel budget 447 m) with a zone boundary
	// only 50 m away: the drone could have detoured into the zone.
	s1 := Sample{Pos: ref, Time: base}
	s2 := Sample{Pos: ref.Offset(90, 30), Time: base.Add(10 * time.Second)}
	z := zoneAt(ref, 0, 80, 30) // boundary ~50 m north

	for _, mode := range []TestMode{Conservative, Exact} {
		if PairSufficient(s1, s2, z, vmax, mode) {
			t.Errorf("mode %v: reachable zone should be insufficient", mode)
		}
	}
}

func TestPairSufficientSampleInsideZone(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	s1 := Sample{Pos: ref, Time: base}
	s2 := Sample{Pos: ref.Offset(90, 10), Time: base.Add(time.Second)}
	z := geo.GeoCircle{Center: ref, R: 50} // sample 1 is inside

	for _, mode := range []TestMode{Conservative, Exact} {
		if PairSufficient(s1, s2, z, vmax, mode) {
			t.Errorf("mode %v: sample inside zone must be insufficient", mode)
		}
	}
}

// TestPairAcrossAntimeridian: a pair 10 s apart on either side of ±180°
// crosses a 20 m zone centred on the antimeridian. Neither mode may call it
// sufficient — the exact test once projected the pair 40,000 km apart, saw
// an empty ellipse and accepted it against every zone.
func TestPairAcrossAntimeridian(t *testing.T) {
	s1 := Sample{Pos: geo.LatLon{Lat: 0, Lon: 179.9995}, Time: base}
	s2 := Sample{Pos: geo.LatLon{Lat: 0, Lon: -179.9995}, Time: base.Add(10 * time.Second)}
	z := geo.GeoCircle{Center: geo.LatLon{Lat: 0, Lon: 180}, R: 20}
	if err := SpeedFeasible([]Sample{s1, s2}, vmax); err != nil {
		t.Fatalf("the pair is ~111 m apart in 10 s: %v", err)
	}
	for _, mode := range []TestMode{Conservative, Exact} {
		if PairSufficient(s1, s2, z, vmax, mode) {
			t.Errorf("%v: a pair crossing the zone at the antimeridian is sufficient", mode)
		}
	}
}

// TestEmptyEllipseNeverSufficient: a pair the drone could not have flown
// at vmax has no travel range; it proves nothing, even against a zone far
// from both samples.
func TestEmptyEllipseNeverSufficient(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	s1 := Sample{Pos: ref, Time: base}
	s2 := Sample{Pos: ref.Offset(90, 10000), Time: base.Add(time.Second)}
	z := zoneAt(ref, 0, 50000, 100)
	for _, mode := range []TestMode{Conservative, Exact} {
		if PairSufficient(s1, s2, z, vmax, mode) {
			t.Errorf("%v: a speed-infeasible pair is sufficient", mode)
		}
	}
}

// TestConservativeSoundness: whenever the conservative test accepts
// (sufficient), the exact test must accept as well.
func TestConservativeSoundness(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1500; i++ {
		s1 := Sample{Pos: ref.Offset(rng.Float64()*360, rng.Float64()*2000), Time: base}
		s2 := Sample{
			Pos:  s1.Pos.Offset(rng.Float64()*360, rng.Float64()*300),
			Time: base.Add(time.Duration(rng.Float64()*20*float64(time.Second)) + time.Millisecond),
		}
		z := zoneAt(ref, rng.Float64()*360, rng.Float64()*3000, rng.Float64()*500+1)

		cons := PairSufficient(s1, s2, z, vmax, Conservative)
		exact := PairSufficient(s1, s2, z, vmax, Exact)
		if cons && !exact {
			t.Fatalf("conservative sufficient but exact insufficient:\n s1=%+v\n s2=%+v\n z=%+v", s1, s2, z)
		}
	}
}

func TestVerifySufficiencyCleanTrace(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	z := zoneAt(ref, 0, 5000, 100)

	// 1 Hz trace moving east at 20 m/s, zone 5 km north: always
	// sufficient (D1+D2 ~ 9.8 km > 44.7 m budget).
	samples := make([]Sample, 60)
	for i := range samples {
		samples[i] = Sample{
			Pos:  ref.Offset(90, float64(i)*20),
			Time: base.Add(time.Duration(i) * time.Second),
		}
	}
	rep, err := VerifySufficiency(samples, []geo.GeoCircle{z}, vmax, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sufficient() {
		t.Errorf("clean trace reported insufficient: %+v", rep.Insufficiencies)
	}
	if rep.Pairs != 59 {
		t.Errorf("Pairs = %d, want 59", rep.Pairs)
	}
}

func TestVerifySufficiencySparseTraceNearZone(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	z := zoneAt(ref, 0, 100, 30)

	// 30 s between samples right next to the zone: budget 1341 m, zone
	// boundary 70 m away — insufficient.
	samples := []Sample{
		{Pos: ref, Time: base},
		{Pos: ref.Offset(90, 200), Time: base.Add(30 * time.Second)},
		{Pos: ref.Offset(90, 400), Time: base.Add(60 * time.Second)},
	}
	rep, err := VerifySufficiency(samples, []geo.GeoCircle{z}, vmax, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sufficient() {
		t.Error("sparse trace near zone should be insufficient")
	}
	if got := rep.InsufficientPairs(); got == 0 {
		t.Error("expected at least one insufficient pair")
	}
}

func TestVerifySufficiencyMultiZoneIndices(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	far := zoneAt(ref, 0, 20000, 100)
	near := zoneAt(ref, 0, 60, 30)

	samples := []Sample{
		{Pos: ref, Time: base},
		{Pos: ref.Offset(90, 100), Time: base.Add(20 * time.Second)},
	}
	rep, err := VerifySufficiency(samples, []geo.GeoCircle{far, near}, vmax, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Insufficiencies) != 1 {
		t.Fatalf("Insufficiencies = %+v, want exactly one", rep.Insufficiencies)
	}
	if rep.Insufficiencies[0].ZoneIndex != 1 {
		t.Errorf("ZoneIndex = %d, want 1 (the near zone)", rep.Insufficiencies[0].ZoneIndex)
	}
	if rep.InsufficientPairs() != 1 {
		t.Errorf("InsufficientPairs = %d, want 1", rep.InsufficientPairs())
	}
}

func TestVerifySufficiencyErrors(t *testing.T) {
	ref := geo.LatLon{Lat: 40, Lon: -88}
	one := []Sample{{Pos: ref, Time: base}}
	if _, err := VerifySufficiency(one, nil, vmax, Conservative); !errors.Is(err, ErrTooFewSamples) {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}

	bad := []Sample{{Pos: ref, Time: base.Add(time.Second)}, {Pos: ref, Time: base}}
	if _, err := VerifySufficiency(bad, nil, vmax, Conservative); !errors.Is(err, ErrNotChronological) {
		t.Errorf("err = %v, want ErrNotChronological", err)
	}
}

func TestCountInsufficient(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	z := zoneAt(ref, 0, 100, 30)

	samples := []Sample{
		{Pos: ref, Time: base},                                      // pair 0: 1 s gap, ok? D1+D2 ~140 vs 44.7 -> fine
		{Pos: ref.Offset(90, 10), Time: base.Add(time.Second)},      //
		{Pos: ref.Offset(90, 20), Time: base.Add(31 * time.Second)}, // pair 1: 30 s gap -> insufficient
		{Pos: ref.Offset(90, 30), Time: base.Add(32 * time.Second)}, // pair 2: 1 s gap -> fine
	}
	counts := CountInsufficient(samples, []geo.GeoCircle{z}, vmax)
	want := []int{0, 1, 1}
	if len(counts) != len(want) {
		t.Fatalf("len(counts) = %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}

	if got := CountInsufficient(samples[:1], []geo.GeoCircle{z}, vmax); got != nil {
		t.Errorf("single-sample count = %v, want nil", got)
	}
}

func TestCountInsufficientNoZones(t *testing.T) {
	samples := []Sample{
		{Pos: geo.LatLon{Lat: 40, Lon: -88}, Time: base},
		{Pos: geo.LatLon{Lat: 40, Lon: -88.001}, Time: base.Add(time.Hour)},
	}
	counts := CountInsufficient(samples, nil, vmax)
	if counts[len(counts)-1] != 0 {
		t.Error("no zones should never be insufficient")
	}
}

func TestSpeedFeasible(t *testing.T) {
	ref := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	ok := []Sample{
		{Pos: ref, Time: base},
		{Pos: ref.Offset(90, 40), Time: base.Add(time.Second)}, // 40 m/s < 44.7
	}
	if err := SpeedFeasible(ok, vmax); err != nil {
		t.Errorf("feasible trace rejected: %v", err)
	}

	tooFast := []Sample{
		{Pos: ref, Time: base},
		{Pos: ref.Offset(90, 100), Time: base.Add(time.Second)}, // 100 m/s
	}
	if err := SpeedFeasible(tooFast, vmax); err == nil {
		t.Error("infeasible trace accepted")
	}
}

func TestTestModeString(t *testing.T) {
	if Conservative.String() != "conservative" || Exact.String() != "exact" {
		t.Error("TestMode String broken")
	}
	if TestMode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}

// TestExactNeverStricterThanTheSphere flies 1 Hz drives away from a 5-mile
// (8 km) zone, the paper's airport study, and tests every pair up to 30 s
// apart: any pair the haversine boundary-distance test clears is provably
// out of the zone's reach on the sphere, so Exact must clear it too. The
// plane anchored at the pair's first sample bends an 8 km disk by more
// than the margin a pair near D1 + D2 = vmax·Δt leaves; before Exact
// asked the sphere as well it refused such pairs on 15 of these 40 seeds.
func TestExactNeverStricterThanTheSphere(t *testing.T) {
	radius := geo.MilesToMeters(5)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		centre := geo.LatLon{Lat: -60 + 120*rng.Float64(), Lon: -180 + 360*rng.Float64()}
		bearing := 360 * rng.Float64()
		out := 5 + 45*rng.Float64()
		speed := 6 + 2*rng.Float64()
		z := geo.GeoCircle{Center: centre, R: radius}
		start := centre.Offset(bearing, radius+out)
		var trace []Sample
		for k := 0; k <= 90; k++ {
			trace = append(trace, Sample{Pos: start.Offset(bearing, speed*float64(k)), Time: base.Add(time.Duration(k) * time.Second)})
		}
		refused := 0
		for i := range trace {
			for j := i + 1; j < len(trace) && j <= i+30; j++ {
				if PairSufficient(trace[i], trace[j], z, vmax, Conservative) && !PairSufficient(trace[i], trace[j], z, vmax, Exact) {
					refused++
				}
			}
		}
		if refused > 0 {
			t.Errorf("seed %d: Exact refused %d pairs the conservative test clears", seed, refused)
		}
	}
}
