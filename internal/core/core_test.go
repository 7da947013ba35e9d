package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/sampling"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

var (
	t0     = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	urbana = geo.LatLon{Lat: 40.1106, Lon: -88.2073}
)

func straightLine(t *testing.T, dur time.Duration) *trace.Route {
	t.Helper()
	r, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, dur)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// flyAdaptive runs Algorithm 1 over the platform's path against zones,
// signing every sample in the platform's TEE.
func flyAdaptive(t *testing.T, p *Platform, zones []geo.GeoCircle, until time.Time) *sampling.RunResult {
	t.Helper()
	a := &sampling.Adaptive{
		Env:    sampling.NewTEEEnv(p.Device(), p.Clock(), p.Receiver()),
		Index:  zone.NewIndex(zones, 0),
		VMaxMS: geo.MaxDroneSpeedMPS,
	}
	res, err := a.Run(until)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewPlatformDefaults(t *testing.T) {
	p, err := NewPlatform(PlatformConfig{Path: straightLine(t, time.Minute), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Receiver().RateHz() != 5 {
		t.Errorf("default GPS rate = %v, want 5", p.Receiver().RateHz())
	}
	if got := p.Device().Vault().SuiteID(); got != sigcrypto.SuiteRSA1024 {
		t.Errorf("default suite = %s, want %s", got, sigcrypto.SuiteRSA1024)
	}
	if !p.Clock().Now().Equal(t0) {
		t.Errorf("clock starts at %v", p.Clock().Now())
	}
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(PlatformConfig{}); err == nil {
		t.Error("nil path accepted")
	}
	if _, err := NewPlatform(PlatformConfig{Path: straightLine(t, time.Minute), GPSRateHz: 99}); err == nil {
		t.Error("out-of-range GPS rate accepted")
	}
}

func TestPlatformFlyAdaptive(t *testing.T) {
	route := straightLine(t, 2*time.Minute)
	p, err := NewPlatform(PlatformConfig{Path: route, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	z := geo.GeoCircle{Center: urbana.Offset(90, 600).Offset(0, 60), R: 20}
	res := flyAdaptive(t, p, []geo.GeoCircle{z}, route.End())
	if res.PoA.Len() < 3 {
		t.Fatalf("adaptive PoA has %d samples", res.PoA.Len())
	}
	// Every signature verifies under the platform's own T+.
	for i, ss := range res.PoA.Samples {
		if err := p.Device().Vault().SuiteKey().Verify(ss.Sample.Marshal(), ss.Sig); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	// And the PoA is sufficient.
	rep, err := poa.VerifySufficiency(res.PoA.Alibi(), []geo.GeoCircle{z}, geo.MaxDroneSpeedMPS, poa.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sufficient() {
		t.Errorf("platform adaptive PoA insufficient: %+v", rep.Insufficiencies)
	}
}

func TestPlatformFlyFixedRate(t *testing.T) {
	route := straightLine(t, 30*time.Second)
	p, err := NewPlatform(PlatformConfig{Path: route, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := &sampling.FixedRate{Env: sampling.NewTEEEnv(p.Device(), p.Clock(), p.Receiver()), RateHz: 2}
	res, err := f.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	if res.PoA.Len() < 55 || res.PoA.Len() > 62 {
		t.Errorf("2 Hz over 30 s = %d samples, want ~60", res.PoA.Len())
	}
}

func TestPlatformDeterministicSampling(t *testing.T) {
	// Key generation is intentionally non-deterministic in crypto/rsa
	// even with a seeded source, but the *sampling behaviour* — which
	// ticks get recorded — must reproduce exactly for a given seed.
	route := straightLine(t, time.Minute)
	z := geo.GeoCircle{Center: urbana.Offset(90, 300).Offset(0, 50), R: 20}
	run := func() []time.Time {
		p, err := NewPlatform(PlatformConfig{Path: route, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return flyAdaptive(t, p, []geo.GeoCircle{z}, route.End()).Stats.Times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("sample %d time differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSpoofGuardJumpDetection(t *testing.T) {
	// Build a teleporting route: waypoints 10 km apart, 1 s apart.
	wps := []trace.Waypoint{
		{Pos: urbana, Time: t0},
		{Pos: urbana.Offset(90, 10), Time: t0.Add(time.Second)},
		{Pos: urbana.Offset(90, 10000), Time: t0.Add(2 * time.Second)}, // teleport
		{Pos: urbana.Offset(90, 10010), Time: t0.Add(3 * time.Second)},
	}
	route, err := trace.NewRoute(wps)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(PlatformConfig{
		Path: route, Seed: 5, GPSRateHz: 1,
		SpoofGuard: &SpoofGuardConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First two fixes pass; the teleport is refused.
	p.Clock().Set(t0)
	if _, err := p.Device().Invoke(tee.GPSSamplerUUID, tee.CmdGetGPSAuth, nil); err != nil {
		t.Fatalf("first fix refused: %v", err)
	}
	p.Clock().Set(t0.Add(time.Second))
	if _, err := p.Device().Invoke(tee.GPSSamplerUUID, tee.CmdGetGPSAuth, nil); err != nil {
		t.Fatalf("second fix refused: %v", err)
	}
	p.Clock().Set(t0.Add(2 * time.Second))
	if _, err := p.Device().Invoke(tee.GPSSamplerUUID, tee.CmdGetGPSAuth, nil); !errors.Is(err, ErrSpoofSuspected) {
		t.Errorf("teleport fix err = %v, want ErrSpoofSuspected", err)
	}
}

func TestSpoofGuardStaleness(t *testing.T) {
	route := straightLine(t, time.Minute)
	p, err := NewPlatform(PlatformConfig{
		Path: route, Seed: 6,
		SpoofGuard: &SpoofGuardConfig{MaxStaleness: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Receiver keeps reporting the final position after the path ends; a
	// query long after the route makes the latest fix stale.
	p.Clock().Set(route.End().Add(time.Minute))
	if _, err := p.Device().Invoke(tee.GPSSamplerUUID, tee.CmdGetGPSAuth, nil); !errors.Is(err, ErrSpoofSuspected) {
		t.Errorf("stale fix err = %v, want ErrSpoofSuspected", err)
	}
}

func TestSpoofGuardCleanFlightUnaffected(t *testing.T) {
	route := straightLine(t, time.Minute)
	p, err := NewPlatform(PlatformConfig{
		Path: route, Seed: 8,
		SpoofGuard: &SpoofGuardConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	z := geo.GeoCircle{Center: urbana.Offset(0, 2000), R: 100}
	res := flyAdaptive(t, p, []geo.GeoCircle{z}, route.End())
	if res.PoA.Len() < 1 {
		t.Error("no samples on clean guarded flight")
	}
}

func TestSpoofGuardFutureSkew(t *testing.T) {
	// A fix stamped 30 s ahead of the secure clock must be refused.
	g := NewSpoofGuard(nil, SpoofGuardConfig{})
	futureFix := gps.Fix{Pos: urbana, Time: t0.Add(30 * time.Second)}
	if err := g.check(futureFix, t0); !errors.Is(err, ErrSpoofSuspected) {
		t.Errorf("future fix err = %v, want ErrSpoofSuspected", err)
	}
}

func TestSpoofGuardAcceptsPlausibleSequence(t *testing.T) {
	g := NewSpoofGuard(nil, SpoofGuardConfig{})
	for i := 0; i < 10; i++ {
		fix := gps.Fix{
			Pos:  urbana.Offset(90, float64(i)*10), // 10 m/s
			Time: t0.Add(time.Duration(i) * time.Second),
		}
		if err := g.check(fix, fix.Time); err != nil {
			t.Fatalf("plausible fix %d refused: %v", i, err)
		}
	}
}
