package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

// streetFixture lays out the benchmark's street geometry centred on mid: a
// 720 m street along bearing with a 20 ft house zone every ~15 m,
// alternating sides, 20-22 m off the centreline (±3 m along), and a 60 s
// flight at ~10 m/s down it that starts somewhere in the first 40 m.
func streetFixture(t testing.TB, seed int64, mid geo.LatLon, bearing float64) (*trace.Route, []geo.GeoCircle) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	origin := mid.Offset(bearing+180, 360)
	var zones []geo.GeoCircle
	for along, side := 0.0, 1.0; along <= 720; along, side = along+15, -side {
		on := origin.Offset(bearing, along+(rng.Float64()*2-1)*3)
		zones = append(zones, geo.GeoCircle{Center: on.Offset(bearing+side*90, 20+rng.Float64()*2), R: geo.FeetToMeters(20)})
	}
	start := origin.Offset(bearing, rng.Float64()*40).Offset(bearing+90, rng.Float64()*2-1)
	route, err := trace.ConstantSpeedLine(start, bearing, 10*(0.97+0.06*rng.Float64()), t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return route, zones
}

// flyRule flies route under rule and returns the run and the secure-world
// work it cost.
func flyRule(t testing.TB, route gps.Path, zones []geo.GeoCircle, rateHz float64, rule Rule) (*RunResult, tee.Stats) {
	t.Helper()
	env, dev := buildEnv(t, route, rateHz)
	a := &Adaptive{Env: env, Index: zone.NewIndex(zones, 0), VMaxMS: geo.MaxDroneSpeedMPS, Rule: rule}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	return res, dev.Snapshot()
}

// requireSufficient fails t unless the alibi proves every zone under both
// verifier modes.
func requireSufficient(t *testing.T, alibi []poa.Sample, zones []geo.GeoCircle) {
	t.Helper()
	for _, mode := range []poa.TestMode{poa.Exact, poa.Conservative} {
		rep, err := poa.VerifySufficiency(alibi, zones, geo.MaxDroneSpeedMPS, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sufficient() {
			t.Errorf("%v: %d insufficient pairs of %d, first %+v", mode, rep.InsufficientPairs(), rep.Pairs, rep.Insufficiencies[0])
		}
	}
}

// greedyBound is the offline count the held read aims at: over the same
// reads, as the TA would sign them, keep extending the pair from the last
// kept read while it stays sufficient under both verifier modes, and keep
// the read before the first one that breaks it.
func greedyBound(t *testing.T, route gps.Path, zones []geo.GeoCircle, rateHz float64) int {
	t.Helper()
	rx, err := gps.NewReceiver(route, rateHz)
	if err != nil {
		t.Fatal(err)
	}
	drv := gps.NewDriver(rx)
	var reads []poa.Sample
	for at := rx.FirstUpdate(); !at.After(route.End()); at = rx.NextUpdateAfter(at) {
		fix, err := drv.GetGPS(at)
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, poa.Sample{Pos: fix.Pos, Time: fix.Time}.Canon())
	}
	sufficient := func(i, j int) bool {
		for _, mode := range []poa.TestMode{poa.Exact, poa.Conservative} {
			rep, err := poa.VerifySufficiency([]poa.Sample{reads[i], reads[j]}, zones, geo.MaxDroneSpeedMPS, mode)
			if err != nil || !rep.Sufficient() {
				return false
			}
		}
		return true
	}
	kept, last := 1, 0
	for j := 1; j < len(reads); j++ {
		if !sufficient(last, j) {
			last = j - 1
			kept++
		}
	}
	if last != len(reads)-1 {
		kept++
	}
	return kept
}

// TestHeldReadSoundOnEveryRoute flies the held-read rule over the street
// geometry at several latitudes, across the antimeridian and at 3 Hz, the
// Fig 8 residential road and the 1 Hz airport drive: every PoA must prove
// alibi under both verifier modes, and the rule must never cost more
// world switches than Algorithm 1 on the same route. On the 5 Hz street
// the rule must sign within one sample of the offline greedy bound, 101
// reads of the 301 where Algorithm 1 signs 151.
func TestHeldReadSoundOnEveryRoute(t *testing.T) {
	type route struct {
		name   string
		path   gps.Path
		zones  []geo.GeoCircle
		rateHz float64
		greedy int // the offline bound to pin against; 0: not pinned
	}
	var routes []route
	for _, c := range []struct {
		name    string
		mid     geo.LatLon
		bearing float64
	}{
		{"street-40N", geo.LatLon{Lat: 40.1106, Lon: -88.2073}, 37},
		{"street-45N-antimeridian-east", geo.LatLon{Lat: 45, Lon: 180}, 80},
		{"street-45N-antimeridian-west", geo.LatLon{Lat: 45, Lon: -180}, 260},
		{"street-69.5N", geo.LatLon{Lat: 69.5, Lon: 18.9}, 305},
	} {
		p, zs := streetFixture(t, 1, c.mid, c.bearing)
		routes = append(routes, route{c.name, p, zs, 5, 101})
	}
	// At 3 Hz an update is not a whole number of milliseconds, but the
	// fix's stamp is: the TA must still find the held fix by its time.
	p3, zs3 := streetFixture(t, 2, geo.LatLon{Lat: 40.1106, Lon: -88.2073}, 130)
	routes = append(routes, route{"street-40N-3Hz", p3, zs3, 3, 0})
	res, err := trace.NewResidentialScenario(trace.DefaultResidentialConfig(t0))
	if err != nil {
		t.Fatal(err)
	}
	routes = append(routes, route{"residential", res.Route, res.Zones, 5, 0})
	// At 1 Hz the first pair proves nothing from the paper's 30 ft start
	// (D1 + D2 < vmax·1 s under either rule); the benchmark's airport
	// flights start 80 ft out for that reason, and so does this one.
	airCfg := trace.DefaultAirportConfig(t0)
	airCfg.StartOutside = geo.FeetToMeters(80)
	air, err := trace.NewAirportScenario(airCfg)
	if err != nil {
		t.Fatal(err)
	}
	routes = append(routes, route{"airport-1Hz", air.Route, air.Zones, 1, 0})

	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			held, heldDev := flyRule(t, r.path, r.zones, r.rateHz, HeldRead)
			requireSufficient(t, held.PoA.Alibi(), r.zones)
			alg1, alg1Dev := flyRule(t, r.path, r.zones, r.rateHz, Algorithm1)
			if heldDev.SMCCalls > alg1Dev.SMCCalls {
				t.Errorf("held read: %d SMCs, Algorithm 1: %d", heldDev.SMCCalls, alg1Dev.SMCCalls)
			}
			if heldDev.SMCCalls != heldDev.Signs || heldDev.Signs != uint64(held.PoA.Len()) {
				t.Errorf("held read: %d SMCs, %d signatures, %d samples; want all equal", heldDev.SMCCalls, heldDev.Signs, held.PoA.Len())
			}
			t.Logf("Algorithm 1 %d samples, held read %d", alg1.PoA.Len(), held.PoA.Len())
			if r.greedy == 0 {
				return
			}
			if g := greedyBound(t, r.path, r.zones, r.rateHz); g != r.greedy {
				t.Errorf("offline greedy bound = %d, want %d", g, r.greedy)
			}
			if n := held.PoA.Len(); n < r.greedy-1 || n > r.greedy+1 {
				t.Errorf("held read signs %d samples, want within 1 of the greedy bound %d", n, r.greedy)
			}
		})
	}
}

// traceDigest is SHA-256 over every sample's (time, lat, lon), the digest
// the operator's per-mode pins use.
func traceDigest(p poa.PoA) string {
	h := sha256.New()
	var b [24]byte
	for _, ss := range p.Samples {
		binary.BigEndian.PutUint64(b[0:], uint64(ss.Sample.Time.UnixNano()))
		binary.BigEndian.PutUint64(b[8:], math.Float64bits(ss.Sample.Pos.Lat))
		binary.BigEndian.PutUint64(b[16:], math.Float64bits(ss.Sample.Pos.Lon))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRulesOnTheMissionFixture pins both rules on the operator's mission
// fixture (a 60 s, 10 m/s line at 5 Hz past a 100 m zone 1 km off and a
// 30 m zone 60 m off): Algorithm 1 keeps the 19-sample trace the paper
// experiments' sampler has always produced, and the held read, which
// every operator flight runs, signs 17 reads of the same flight.
func TestRulesOnTheMissionFixture(t *testing.T) {
	start := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	route := straightRoute(t, 10, time.Minute)
	zones := []geo.GeoCircle{
		{Center: start.Offset(0, 1000), R: 100},
		{Center: start.Offset(90, 300).Offset(0, 60), R: 30},
	}
	for _, pin := range []struct {
		rule    Rule
		samples int
		sha     string
	}{
		{Algorithm1, 19, "62963eb09500a69e2e3710632d707b757134ec910d7823712e3eb6a8594f56d2"},
		{HeldRead, 17, "2be692379e90789322a2a900631c3eadb657f2aa8eea45af0c718f4871083efa"},
	} {
		res, st := flyRule(t, route, zones, 5, pin.rule)
		if n := res.PoA.Len(); n != pin.samples || st.Signs != uint64(n) || st.SMCCalls != uint64(n) {
			t.Errorf("rule %d: %d samples, %d signatures, %d SMCs; want %d of each", pin.rule, n, st.Signs, st.SMCCalls, pin.samples)
		}
		if got := traceDigest(res.PoA); got != pin.sha {
			t.Errorf("rule %d: trace digest = %s, want %s", pin.rule, got, pin.sha)
		}
		requireSufficient(t, res.PoA.Alibi(), zones)
	}
}
