package sampling

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

var t0 = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

// buildEnv assembles the full stack over the given path and receiver rate.
func buildEnv(t testing.TB, p gps.Path, rateHz float64, opts ...gps.ReceiverOption) (Env, *tee.Device) {
	t.Helper()
	pl, err := tee.NewPlatform(p, rateHz, sigcrypto.SuiteRSA1024, rand.New(rand.NewSource(77)), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return NewTEEEnv(pl.Device, pl.Clock, pl.Receiver), pl.Device
}

func straightRoute(t testing.TB, speedMS float64, dur time.Duration) *trace.Route {
	t.Helper()
	r, err := trace.ConstantSpeedLine(geo.LatLon{Lat: 40.1106, Lon: -88.2073}, 90, speedMS, t0, dur)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFixedRatePaperExample(t *testing.T) {
	// Paper §VI-A1: receiver at 5 Hz, sampler at 3 Hz → wake-ups at 0,
	// 0.33, 0.67 s produce samples at 0, 0.4, 0.8 s.
	route := straightRoute(t, 10, 10*time.Second)
	env, _ := buildEnv(t, route, 5)

	f := &FixedRate{Env: env, RateHz: 3}
	res, err := f.Run(t0.Add(999 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 400 * time.Millisecond, 800 * time.Millisecond}
	if len(res.Stats.Times) != len(want) {
		t.Fatalf("samples = %d (%v), want %d", len(res.Stats.Times), res.Stats.Times, len(want))
	}
	for i, w := range want {
		if got := res.Stats.Times[i].Sub(t0); got != w {
			t.Errorf("sample %d at %v, want %v", i, got, w)
		}
	}
}

func TestFixedRateSampleCount(t *testing.T) {
	route := straightRoute(t, 10, 60*time.Second)
	env, _ := buildEnv(t, route, 5)

	f := &FixedRate{Env: env, RateHz: 1}
	res, err := f.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	// 1 Hz over 60 s: 61 wake-ups land inside [0, 60]; each binds to a
	// distinct 5 Hz tick.
	if res.PoA.Len() < 59 || res.PoA.Len() > 61 {
		t.Errorf("PoA samples = %d, want ~60", res.PoA.Len())
	}
	if res.Stats.AuthCalls != res.PoA.Len() {
		t.Errorf("AuthCalls = %d, PoA = %d", res.Stats.AuthCalls, res.PoA.Len())
	}
}

func TestFixedRateSamplerFasterThanReceiver(t *testing.T) {
	// A 5 Hz sampler on a 1 Hz receiver can only realise 1 Hz: duplicate
	// ticks must be collapsed.
	route := straightRoute(t, 10, 10*time.Second)
	env, _ := buildEnv(t, route, 1)

	f := &FixedRate{Env: env, RateHz: 5}
	res, err := f.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Stats.Times); i++ {
		if !res.Stats.Times[i].After(res.Stats.Times[i-1]) {
			t.Fatal("duplicate or non-monotonic sample times")
		}
	}
	if res.PoA.Len() > 11 {
		t.Errorf("PoA samples = %d, want <= 11 at 1 Hz effective", res.PoA.Len())
	}
}

func TestFixedRateBadRate(t *testing.T) {
	route := straightRoute(t, 10, time.Second)
	env, _ := buildEnv(t, route, 5)
	f := &FixedRate{Env: env, RateHz: 0}
	if _, err := f.Run(route.End()); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestFixedRateSignaturesVerify(t *testing.T) {
	route := straightRoute(t, 10, 5*time.Second)
	env, dev := buildEnv(t, route, 5)

	f := &FixedRate{Env: env, RateHz: 2}
	res, err := f.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	for i, ss := range res.PoA.Samples {
		if err := dev.Vault().SuiteKey().Verify(ss.Sample.Marshal(), ss.Sig); err != nil {
			t.Fatalf("sample %d signature invalid: %v", i, err)
		}
	}
}

func TestAdaptiveFarFromZoneSamplesRarely(t *testing.T) {
	// Zone 5 km away from a drive that moves further away: after the
	// anchor sample the adaptive sampler should need almost nothing.
	route := straightRoute(t, 10, 2*time.Minute)
	env, _ := buildEnv(t, route, 5)
	z := geo.GeoCircle{Center: geo.LatLon{Lat: 40.1106, Lon: -88.2073}.Offset(270, 5000), R: 100}

	a := &Adaptive{Env: env, Index: zone.NewIndex([]geo.GeoCircle{z}, 0), VMaxMS: geo.MaxDroneSpeedMPS}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	if res.PoA.Len() > 3 {
		t.Errorf("adaptive took %d samples far from zone, want <= 3", res.PoA.Len())
	}
	// It still read the GPS at the hardware rate.
	if res.Stats.Reads < 500 {
		t.Errorf("Reads = %d, want ~600", res.Stats.Reads)
	}
}

func TestAdaptivePoAStaysSufficient(t *testing.T) {
	// Drive straight past a zone whose boundary comes within ~30 m: the
	// adaptive PoA must remain sufficient for the whole flight.
	start := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	route := straightRoute(t, 10, 2*time.Minute)
	// Zone abeam the route at its midpoint, 50 m off the line, r=20.
	mid := start.Offset(90, 10*60) // 600 m along
	z := geo.GeoCircle{Center: mid.Offset(0, 50), R: 20}

	env, _ := buildEnv(t, route, 5)
	a := &Adaptive{Env: env, Index: zone.NewIndex([]geo.GeoCircle{z}, 0), VMaxMS: geo.MaxDroneSpeedMPS}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}

	rep, err := poa.VerifySufficiency(res.PoA.Alibi(), []geo.GeoCircle{z}, geo.MaxDroneSpeedMPS, poa.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sufficient() {
		t.Errorf("adaptive PoA insufficient: %+v", rep.Insufficiencies)
	}

	// And it should use far fewer samples than 5 Hz fixed over 120 s
	// (600), while pushing the rate up near the zone.
	if res.PoA.Len() >= 300 {
		t.Errorf("adaptive used %d samples, expected well under 5 Hz fixed (600)", res.PoA.Len())
	}
	if res.PoA.Len() < 5 {
		t.Errorf("adaptive used only %d samples passing 30 m from a zone", res.PoA.Len())
	}
}

func TestAdaptiveRateIncreasesNearZone(t *testing.T) {
	start := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	route := straightRoute(t, 10, 2*time.Minute)
	mid := start.Offset(90, 600)
	z := geo.GeoCircle{Center: mid.Offset(0, 60), R: 20}

	env, _ := buildEnv(t, route, 5)
	a := &Adaptive{Env: env, Index: zone.NewIndex([]geo.GeoCircle{z}, 0), VMaxMS: geo.MaxDroneSpeedMPS}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}

	// Find the max instantaneous rate within 10 s of the closest
	// approach (t=60 s) and the min rate far away (t>100 s).
	var nearMax, farMin float64
	farMin = 1e9
	for _, rp := range res.Stats.InstantRates() {
		dt := rp.T.Sub(t0)
		if dt > 50*time.Second && dt < 70*time.Second && rp.Hz > nearMax {
			nearMax = rp.Hz
		}
		if dt > 100*time.Second && rp.Hz < farMin {
			farMin = rp.Hz
		}
	}
	if nearMax == 0 {
		t.Fatal("no samples near the zone at all")
	}
	if farMin < 1e9 && nearMax <= farMin {
		t.Errorf("rate near zone (%v Hz) not above rate far away (%v Hz)", nearMax, farMin)
	}
}

func TestAdaptiveNoZonesAnchorAndFinal(t *testing.T) {
	route := straightRoute(t, 10, time.Minute)
	env, _ := buildEnv(t, route, 5)
	a := &Adaptive{Env: env, Index: zone.NewIndex(nil, 0), VMaxMS: geo.MaxDroneSpeedMPS}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	// With no zones the PoA is just the flight frame: the anchor at
	// take-off and the closing sample at landing (goal G1 coverage).
	if res.PoA.Len() != 2 {
		t.Errorf("PoA samples = %d, want 2 (anchor + final)", res.PoA.Len())
	}
	if got := res.Stats.Times[1].Sub(t0); got != time.Minute {
		t.Errorf("final sample at %v, want 1m0s", got)
	}
}

func TestAdaptiveHeartbeat(t *testing.T) {
	route := straightRoute(t, 10, time.Minute)
	env, _ := buildEnv(t, route, 5)
	a := &Adaptive{
		Env: env, Index: zone.NewIndex(nil, 0), VMaxMS: geo.MaxDroneSpeedMPS,
		MaxGap: 10 * time.Second,
	}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	// 60 s flight with a 10 s heartbeat: ~7 samples.
	if res.PoA.Len() < 6 || res.PoA.Len() > 8 {
		t.Errorf("PoA samples = %d, want ~7", res.PoA.Len())
	}
}

// TestAdaptiveHeartbeatRefreshesD1: D1 belongs to the last *recorded*
// sample, whichever rule recorded it. Flying straight at a zone from
// 1.5 km out, the first dozen samples are heartbeats; were D1 left at the
// anchor's 1.5 km after them, condition (3) would not fire before the
// boundary and the 10 s heartbeat pairs near the zone (D1+D2 = 300 m
// against vmax·Δt = 447 m) would be insufficient.
func TestAdaptiveHeartbeatRefreshesD1(t *testing.T) {
	route := straightRoute(t, 10, 140*time.Second)
	z := geo.GeoCircle{Center: geo.LatLon{Lat: 40.1106, Lon: -88.2073}.Offset(90, 1600), R: 100}
	zs := []geo.GeoCircle{z}

	env, _ := buildEnv(t, route, 5)
	a := &Adaptive{Env: env, Index: zone.NewIndex(zs, 0), VMaxMS: geo.MaxDroneSpeedMPS, MaxGap: 10 * time.Second}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	if gap := res.Stats.Times[1].Sub(res.Stats.Times[0]); gap != a.MaxGap {
		t.Fatalf("second sample after %v, want a %v heartbeat", gap, a.MaxGap)
	}
	rep, err := poa.VerifySufficiency(res.PoA.Alibi(), zs, geo.MaxDroneSpeedMPS, poa.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sufficient() {
		t.Errorf("PoA insufficient after heartbeat samples: %+v (times %v)", rep.Insufficiencies, res.Stats.Times)
	}
}

func TestAdaptiveStrictVsRelaxedOnMissedUpdate(t *testing.T) {
	// A missed hardware update right at the closest approach can make
	// the next gap insufficient. Relaxed mode re-anchors immediately;
	// strict (paper) mode skips the secure call when condition (2)
	// already failed. Both should agree when nothing is missed.
	start := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	route := straightRoute(t, 10, time.Minute)
	mid := start.Offset(90, 300)
	z := geo.GeoCircle{Center: mid.Offset(0, 30), R: 20}
	zs := []geo.GeoCircle{z}

	run := func(rule Rule, opts ...gps.ReceiverOption) *RunResult {
		env, _ := buildEnv(t, route, 5, opts...)
		a := &Adaptive{Env: env, Index: zone.NewIndex(zs, 0), VMaxMS: geo.MaxDroneSpeedMPS, Rule: rule}
		res, err := a.Run(route.End())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	clean := run(Algorithm1)
	cleanStrict := run(Algorithm1Strict)
	if clean.PoA.Len() != cleanStrict.PoA.Len() {
		t.Errorf("clean runs differ: relaxed %d vs strict %d samples",
			clean.PoA.Len(), cleanStrict.PoA.Len())
	}

	// Miss ~2 s of updates around the closest approach (t=30 s → ticks
	// 150-159 at 5 Hz).
	missed := make([]int64, 10)
	for i := range missed {
		missed[i] = 150 + int64(i)
	}
	relaxed := run(Algorithm1, gps.WithMissedUpdates(missed...))
	counts := poa.CountInsufficient(relaxed.PoA.Alibi(), zs, geo.MaxDroneSpeedMPS)
	total := 0
	if len(counts) > 0 {
		total = counts[len(counts)-1]
	}
	// The relaxed sampler limits the damage to at most a couple of
	// insufficient pairs.
	if total > 2 {
		t.Errorf("relaxed mode: %d insufficient pairs after missed updates, want <= 2", total)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{
		Times: []time.Time{t0, t0.Add(time.Second), t0.Add(1500 * time.Millisecond)},
	}
	rates := s.InstantRates()
	if len(rates) != 2 {
		t.Fatalf("InstantRates len = %d", len(rates))
	}
	if rates[0].Hz != 1 || rates[1].Hz != 2 {
		t.Errorf("rates = %+v", rates)
	}

	s.PoASamples = 3
	s.Elapsed = 2 * time.Second
	if got := s.MeanRateHz(); got != 1.5 {
		t.Errorf("MeanRateHz = %v", got)
	}
	if (Stats{}).MeanRateHz() != 0 {
		t.Error("empty stats mean rate should be 0")
	}
	if (Stats{}).InstantRates() != nil {
		t.Error("empty stats rates should be nil")
	}
}

// TestSamplersFinishOnA3HzReceiver runs both samplers on a receiver whose
// period is not a whole number of nanoseconds. Each run gets a deadline
// on its own goroutine, so a sampler stuck on one GPS update fails the
// test instead of hanging the suite.
func TestSamplersFinishOnA3HzReceiver(t *testing.T) {
	route := straightRoute(t, 10, 30*time.Second)
	runs := map[string]func(Env) (*RunResult, error){
		"adaptive": func(env Env) (*RunResult, error) {
			z := geo.GeoCircle{Center: geo.LatLon{Lat: 40.1106, Lon: -88.2073}.Offset(90, 150).Offset(0, 40), R: 20}
			a := &Adaptive{Env: env, Index: zone.NewIndex([]geo.GeoCircle{z}, 0), VMaxMS: geo.MaxDroneSpeedMPS}
			return a.Run(route.End())
		},
		"fixed": func(env Env) (*RunResult, error) {
			f := &FixedRate{Env: env, RateHz: 3}
			return f.Run(route.End())
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			env, _ := buildEnv(t, route, 3)
			type outcome struct {
				res *RunResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := run(env)
				done <- outcome{res, err}
			}()
			timer := time.NewTimer(2 * time.Second)
			defer timer.Stop()
			select {
			case o := <-done:
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.res.PoA.Len() < 2 {
					t.Errorf("recorded %d samples", o.res.PoA.Len())
				}
			case <-timer.C:
				t.Fatal("sampler did not finish within 2 s on a 3 Hz receiver")
			}
		})
	}
}
