// Benchmark harness: one benchmark per paper table/figure plus the
// ablation micro-benchmarks called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks (Fig6/Fig8/Table2) regenerate the full
// evaluation artefact per iteration; the micro-benchmarks isolate the
// costs the design trades off (signature size, disjointness test, zone
// index, batch vs per-sample signing, HMAC vs RSA).
package alidrone

import (
	"context"
	"crypto/rsa"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/nmea"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

var benchStart = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

// --- Experiment benchmarks: one per table/figure -------------------------

// BenchmarkFig6Airport regenerates the airport scenario comparison
// (paper Fig 6: 649 fix-rate vs 14 adaptive samples).
func BenchmarkFig6Airport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig6()
		if err != nil {
			b.Fatal(err)
		}
		if r.AdaptiveSamples >= r.FixedSamples {
			b.Fatal("adaptive did not win")
		}
	}
}

// BenchmarkFig7Residential regenerates the residential layout (Fig 7).
func BenchmarkFig7Residential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Residential regenerates the residential series (Fig 8 a-c).
func BenchmarkFig8Residential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8()
		if err != nil {
			b.Fatal(err)
		}
		if r.Totals["2Hz"] <= r.Totals["5Hz"] {
			b.Fatal("insufficiency ordering broken")
		}
	}
}

// BenchmarkTable2 regenerates the CPU/power/memory table (Table II).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Crypto micro-benchmarks (Table II's per-sample cost drivers) --------

func benchKey(b *testing.B, bits int) *rsa.PrivateKey {
	b.Helper()
	key, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(1)), bits)
	if err != nil {
		b.Fatal(err)
	}
	return key
}

// BenchmarkSignSample1024 measures one TEE signature with the short key
// that sustains 5 Hz in the paper.
func BenchmarkSignSample1024(b *testing.B) {
	key := benchKey(b, 1024)
	msg := benchSample().Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigcrypto.Sign(key, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignSample2048 measures the long-key signature that cannot keep
// up with 5 Hz on the Pi.
func BenchmarkSignSample2048(b *testing.B) {
	key := benchKey(b, 2048)
	msg := benchSample().Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigcrypto.Sign(key, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifySample1024 is the auditor-side cost per sample.
func BenchmarkVerifySample1024(b *testing.B) {
	key := benchKey(b, 1024)
	msg := benchSample().Marshal()
	sig, err := sigcrypto.Sign(key, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sigcrypto.Verify(&key.PublicKey, msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSuiteKey generates one private key of the given suite.
func benchSuiteKey(b *testing.B, suiteID string) sigcrypto.PrivateKey {
	b.Helper()
	suite, err := sigcrypto.SuiteByID(suiteID)
	if err != nil {
		b.Fatal(err)
	}
	key, err := suite.GenerateKey(rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	return key
}

// benchTrace builds n canonical 1 Hz samples.
func benchTrace(n int) []poa.Sample {
	samples := make([]poa.Sample, n)
	for i := range samples {
		samples[i] = poa.Sample{
			Pos:  geo.LatLon{Lat: 40.1, Lon: -88.2},
			Time: benchStart.Add(time.Duration(i) * time.Second),
		}.Canon()
	}
	return samples
}

// BenchmarkVerifySamples is the auditor-side cost of verifying one
// 100-sample submission under each signature suite. The per-sample
// suites pay one asymmetric verify per sample (through the suite's
// BatchVerify, as the verify stage does); ed25519-batch is the
// §VII-A1b seal — the whole trace under ONE Ed25519 signature — which
// is where the suite's cheap signing turns into a per-submission
// verification win over rsa2048.
func BenchmarkVerifySamples(b *testing.B) {
	const nSamples = 100
	samples := benchTrace(nSamples)

	for _, suiteID := range []string{"rsa2048", "ed25519"} {
		b.Run(suiteID, func(b *testing.B) {
			key := benchSuiteKey(b, suiteID)
			suite, err := sigcrypto.SuiteByID(suiteID)
			if err != nil {
				b.Fatal(err)
			}
			pub := key.Public()
			msgs := make([][]byte, nSamples)
			sigs := make([][]byte, nSamples)
			for i, s := range samples {
				msgs[i] = s.Marshal()
				if sigs[i], err = key.Sign(msgs[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if idx, err := suite.BatchVerify(pub, msgs, sigs); err != nil {
					b.Fatalf("sample %d: %v", idx, err)
				}
			}
		})
	}

	b.Run("ed25519-batch", func(b *testing.B) {
		key := benchSuiteKey(b, "ed25519")
		pub := key.Public()
		msg := poa.MarshalBatch(samples)
		sig, err := key.Sign(msg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pub.Verify(msg, sig); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSignRate is the Table II axis across suites: one TEE sample
// signature per op, reported also as achievable signing rate. Ed25519
// signs far faster than even the paper's short RSA key, lifting the
// signing bottleneck that caps the sampling rate.
func BenchmarkSignRate(b *testing.B) {
	for _, suiteID := range []string{"rsa1024", "rsa2048", "ed25519"} {
		b.Run(suiteID, func(b *testing.B) {
			key := benchSuiteKey(b, suiteID)
			msg := benchSample().Marshal()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := key.Sign(msg); err != nil {
					b.Fatal(err)
				}
			}
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed, "signs/sec")
			}
		})
	}
}

// BenchmarkHMACSample is the §VII-A1a symmetric alternative: orders of
// magnitude cheaper than RSA.
func BenchmarkHMACSample(b *testing.B) {
	key := make([]byte, 32)
	msg := benchSample().Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigcrypto.MAC(key, msg)
	}
}

// BenchmarkBatchSignTrace is the §VII-A1b alternative: one signature over
// a whole 30-minute 1 Hz trace instead of 1800 per-sample signatures.
func BenchmarkBatchSignTrace(b *testing.B) {
	key := benchKey(b, 1024)
	samples := make([]poa.Sample, 1800)
	for i := range samples {
		samples[i] = poa.Sample{
			Pos:  geo.LatLon{Lat: 40.1, Lon: -88.2},
			Time: benchStart.Add(time.Duration(i) * time.Second),
		}
	}
	msg := poa.MarshalBatch(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigcrypto.Sign(key, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Geometry micro-benchmarks (sufficiency test ablation) ---------------

// BenchmarkPairSufficientConservative is the paper's online boundary test.
func BenchmarkPairSufficientConservative(b *testing.B) {
	s1, s2, z := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = poa.PairSufficient(s1, s2, z, geo.MaxDroneSpeedMPS, poa.Conservative)
	}
}

// BenchmarkPairSufficientExact is the auditor's exact ellipse-disk test
// on a pair the planar lower bound clears (30 m from a house at 5 m/s).
func BenchmarkPairSufficientExact(b *testing.B) {
	s1, s2, z := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = poa.PairSufficient(s1, s2, z, geo.MaxDroneSpeedMPS, poa.Exact)
	}
}

// benchSink keeps the compiler from discarding a benchmarked call.
var benchSink bool

// BenchmarkVerifySufficiencyResidential verifies a full residential-flight
// PoA: /exact is the auditor's per-submission geometric cost (its default
// mode), /conservative the paper's boundary test over the same trace.
func BenchmarkVerifySufficiencyResidential(b *testing.B) {
	sc, err := trace.NewResidentialScenario(trace.DefaultResidentialConfig(benchStart))
	if err != nil {
		b.Fatal(err)
	}
	samples := make([]poa.Sample, 0, 310)
	for dt := time.Duration(0); dt <= sc.Route.Duration(); dt += 500 * time.Millisecond {
		samples = append(samples, poa.Sample{
			Pos:  sc.Route.Position(benchStart.Add(dt)).Pos,
			Time: benchStart.Add(dt),
		})
	}
	for _, mode := range []poa.TestMode{poa.Exact, poa.Conservative} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := poa.VerifySufficiency(samples, sc.Zones, geo.MaxDroneSpeedMPS, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifySufficiencyStreet is the sufficiency stage on the
// repository benchmark's street flight (benchmark/gen.go): 152 samples
// 0.4 s apart at 10 m/s down a 720 m street, 49 six-metre house zones
// staggered 20-22 m either side of the centreline, Exact mode. Every pair
// clears every house.
func BenchmarkVerifySufficiencyStreet(b *testing.B) {
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	rng := rand.New(rand.NewSource(5))
	samples := make([]poa.Sample, 152)
	for i := range samples {
		samples[i] = poa.Sample{
			Pos:  home.Offset(90, 4*float64(i)),
			Time: benchStart.Add(time.Duration(i) * 400 * time.Millisecond),
		}
	}
	zones := make([]geo.GeoCircle, 49)
	for i, side := 0, 0.0; i < len(zones); i, side = i+1, 180-side {
		on := home.Offset(90, 15*float64(i)+rng.Float64()*6-3)
		zones[i] = geo.GeoCircle{Center: on.Offset(side, 20+rng.Float64()*2), R: geo.FeetToMeters(20)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := poa.VerifySufficiency(samples, zones, geo.MaxDroneSpeedMPS, poa.Exact)
		if err != nil || !rep.Sufficient() {
			b.Fatalf("street trace: %+v, %v", rep.Insufficiencies, err)
		}
	}
}

// --- Zone index ablation --------------------------------------------------

func benchZones(n int) []geo.GeoCircle {
	rng := rand.New(rand.NewSource(3))
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	zs := make([]geo.GeoCircle, n)
	for i := range zs {
		zs[i] = geo.GeoCircle{
			Center: home.Offset(rng.Float64()*360, rng.Float64()*5000),
			R:      5 + rng.Float64()*50,
		}
	}
	return zs
}

// BenchmarkZoneNearestLinear94 is the linear scan at the paper's
// residential density.
func BenchmarkZoneNearestLinear94(b *testing.B) {
	zs := benchZones(94)
	p := geo.LatLon{Lat: 40.115, Lon: -88.21}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := zone.NearestLinear(zs, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoneNearestIndex94 is the grid index at the same density.
func BenchmarkZoneNearestIndex94(b *testing.B) {
	idx := zone.NewIndex(benchZones(94), 0)
	p := geo.LatLon{Lat: 40.115, Lon: -88.21}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.Nearest(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoneNearestLinear2000 scales the linear scan to a city-sized
// zone set.
func BenchmarkZoneNearestLinear2000(b *testing.B) {
	zs := benchZones(2000)
	p := geo.LatLon{Lat: 40.115, Lon: -88.21}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := zone.NearestLinear(zs, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoneNearestIndex2000 is the grid index on the same set.
func BenchmarkZoneNearestIndex2000(b *testing.B) {
	idx := zone.NewIndex(benchZones(2000), 0)
	p := geo.LatLon{Lat: 40.115, Lon: -88.21}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.Nearest(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZoneNearestAirport is the paper's airport study: one 5-mile
// zone, the drone 30 m outside its boundary, so the query's cell is ~40
// rings of 200 m cells from the only populated one.
func BenchmarkZoneNearestAirport(b *testing.B) {
	z := geo.GeoCircle{Center: geo.LatLon{Lat: 40.1106, Lon: -88.2073}, R: geo.MilesToMeters(5)}
	idx := zone.NewIndex([]geo.GeoCircle{z}, 0)
	p := z.Center.Offset(70, z.R+30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := idx.Nearest(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sampler end-to-end ablation ------------------------------------------

// benchSamplerRun executes one full residential flight with the given
// sampler configuration.
func benchSamplerRun(b *testing.B, fixedRate float64) {
	b.Helper()
	sc, err := trace.NewResidentialScenario(trace.DefaultResidentialConfig(benchStart))
	if err != nil {
		b.Fatal(err)
	}
	idx := zone.NewIndex(sc.Zones, 0)
	for i := 0; i < b.N; i++ {
		p, err := tee.NewPlatform(sc.Route, 5, sigcrypto.SuiteRSA1024, rand.New(rand.NewSource(4)))
		if err != nil {
			b.Fatal(err)
		}
		env := sampling.NewTEEEnv(p.Device, p.Clock, p.Receiver)

		if fixedRate > 0 {
			f := &sampling.FixedRate{Env: env, RateHz: fixedRate}
			if _, err := f.Run(sc.Route.End()); err != nil {
				b.Fatal(err)
			}
		} else {
			a := &sampling.Adaptive{Env: env, Index: idx, VMaxMS: geo.MaxDroneSpeedMPS}
			if _, err := a.Run(sc.Route.End()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkResidentialFlightAdaptive runs the full adaptive flight.
func BenchmarkResidentialFlightAdaptive(b *testing.B) { benchSamplerRun(b, 0) }

// BenchmarkResidentialFlightFixed5Hz runs the 5 Hz baseline flight.
func BenchmarkResidentialFlightFixed5Hz(b *testing.B) { benchSamplerRun(b, 5) }

// BenchmarkResidentialFlightCommit flies the residential drive in commit
// mode through Drone.Fly on an Ed25519 TEE: the held-read sampler buffers
// in the secure world, and CmdCommitTrace signs every sample, seals the
// trace, builds the clearance predicates and signs the envelope. The
// platform and the drone's registration are built before the timer starts;
// each iteration is one flight with no registry attached.
func BenchmarkResidentialFlightCommit(b *testing.B) {
	sc, err := trace.NewResidentialScenario(trace.DefaultResidentialConfig(benchStart))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := tee.NewPlatform(sc.Route, 5, sigcrypto.SuiteEd25519, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	d, err := operator.NewDrone(srv, srv.EncryptionPub(), p.Device, p.Clock, sigcrypto.KeySize1024, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	if err := d.SetDisclosure(operator.ModeCommit.Disclosure()); err != nil {
		b.Fatal(err)
	}
	if err := d.Register(); err != nil {
		b.Fatal(err)
	}
	spec := operator.FlightSpec{Mode: operator.ModeCommit}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Fly(context.Background(), p.Receiver, sc.Zones, sc.Route.End(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- NMEA micro-benchmarks -------------------------------------------------

// BenchmarkNMEAParseRMC measures the driver's per-update parse cost.
func BenchmarkNMEAParseRMC(b *testing.B) {
	sentence := nmea.EncodeRMC(nmea.RMC{
		Time: benchStart, Valid: true, Lat: 40.1106, Lon: -88.2073,
		SpeedKnots: 19.4, CourseDeg: 88,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nmea.ParseRMC(sentence); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---------------------------------------------------------------

func benchSample() poa.Sample {
	return poa.Sample{Pos: geo.LatLon{Lat: 40.1106, Lon: -88.2073}, Time: benchStart}.Canon()
}

func benchPair() (poa.Sample, poa.Sample, geo.GeoCircle) {
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	s1 := poa.Sample{Pos: home, Time: benchStart}
	s2 := poa.Sample{Pos: home.Offset(90, 5), Time: benchStart.Add(time.Second)}
	z := geo.GeoCircle{Center: home.Offset(0, 40), R: 10}
	return s1, s2, z
}

// residentialPoAPlaintext is the binary body of a full residential PoA — what
// the Adapter seals at the end of a flight and the Auditor opens.
func residentialPoAPlaintext(b *testing.B) []byte {
	b.Helper()
	samples := make([]poa.SignedSample, 443)
	for i := range samples {
		samples[i] = poa.SignedSample{
			Sample: benchSample(),
			Sig:    make([]byte, 128),
		}
	}
	plaintext, err := poa.EncodePoA(poa.PoA{Samples: samples})
	if err != nil {
		b.Fatal(err)
	}
	return plaintext
}

// BenchmarkEncryptPoAResidential measures the Adapter's end-of-flight
// encryption of a full residential PoA to the auditor.
func BenchmarkEncryptPoAResidential(b *testing.B) {
	key := benchKey(b, 1024)
	plaintext := residentialPoAPlaintext(b)
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigcrypto.Seal(rng, &key.PublicKey, plaintext); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenPoAResidential measures the Auditor's side of the same
// envelope: one private-key operation plus AES-GCM over the body.
func BenchmarkOpenPoAResidential(b *testing.B) {
	key := benchKey(b, 1024)
	plaintext := residentialPoAPlaintext(b)
	ct, err := sigcrypto.Seal(rand.New(rand.NewSource(6)), &key.PublicKey, plaintext)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sigcrypto.Open(key, ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoACodec151 measures the drone-to-auditor cost of the proof
// body alone: encoding a 151-sample rsa1024 PoA (a street flight) and
// decoding it again, the two passes around the envelope.
func BenchmarkPoACodec151(b *testing.B) {
	sig := make([]byte, 128)
	var p poa.PoA
	for i := 0; i < 151; i++ {
		s := poa.Sample{
			Pos:  benchSample().Pos.Offset(45, 10*float64(i)),
			Time: benchStart.Add(time.Duration(i) * time.Second),
		}.Canon()
		p.Append(poa.SignedSample{Sample: s, Sig: sig})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := poa.EncodePoA(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := poa.DecodePoA(body); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability overhead -------------------------------------------------

// benchVerifySetup builds an auditor (with or without a metrics registry),
// one registered drone and an encrypted sparse-trace PoA. The trace is
// insufficient against the registered zone, so every submission is a
// violation verdict — violations are not recorded for replay detection,
// which makes the same ciphertext resubmittable b.N times while still
// exercising all four verification stages.
func benchVerifySetup(b *testing.B, reg *obs.Registry, tr *otrace.Tracer) (*auditor.Server, string, []byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	srv, err := auditor.NewServer(auditor.Config{Random: rng, Metrics: reg, Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	opKey := benchKey(b, 1024)
	teeKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(10)), 1024)
	if err != nil {
		b.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&opKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		b.Fatal(err)
	}

	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "bench", Zone: geo.GeoCircle{Center: home.Offset(0, 60), R: 30},
	}); err != nil {
		b.Fatal(err)
	}

	var p poa.PoA
	for i := 0; i < 20; i++ {
		s := poa.Sample{
			Pos:  home.Offset(90, 10*float64(i)*20),
			Time: benchStart.Add(time.Duration(i) * 20 * time.Second),
		}.Canon()
		sig, err := sigcrypto.Sign(teeKey, s.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		p.Append(poa.SignedSample{Sample: s, Sig: sig})
	}
	plaintext, err := poa.EncodePoA(p)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sigcrypto.Seal(rng, srv.EncryptionPub(), plaintext)
	if err != nil {
		b.Fatal(err)
	}
	return srv, resp.DroneID, ct
}

// BenchmarkVerifyPipeline measures the full submission path (decrypt →
// signature → chronology → speed → sufficiency) with the metrics registry
// off and on, and with the tracer compiled in at sampling rate 0. The
// sub-benchmarks quantify the observability layer's overhead, which must
// stay in the noise (<5%) because the stage spans sit on the auditor's
// hot path: traced-sampling-off pays only the unsampled span creation
// per stage, never a record.
func BenchmarkVerifyPipeline(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry, tr *otrace.Tracer) {
		srv, droneID, ct := benchVerifySetup(b, reg, tr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: ct})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Verdict != protocol.VerdictViolation {
				b.Fatalf("verdict = %v, want repeatable violation", resp.Verdict)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil, nil) })
	b.Run("instrumented", func(b *testing.B) { run(b, obs.NewRegistry(nil), nil) })
	b.Run("traced-sampling-off", func(b *testing.B) {
		run(b, nil, otrace.New(otrace.Options{Sample: 0, Sink: otrace.NewRingCollector(otrace.DefaultRingSize)}))
	})
}

// --- Parallel verification engine -------------------------------------------

// benchParallelSetup builds an auditor with the given worker-pool size,
// one registered drone and an encrypted PoA of n TEE-signed samples. The
// sparse trace is insufficient against the registered zone, so every
// submission is a repeatable violation (see benchVerifySetup) that still
// pays the full per-sample RSA cost — the work the pool parallelises.
func benchParallelSetup(b *testing.B, workers, n int) (*auditor.Server, string, []byte) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	srv, err := auditor.NewServer(auditor.Config{Random: rng, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	opKey := benchKey(b, 1024)
	teeKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(10)), 1024)
	if err != nil {
		b.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&opKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		b.Fatal(err)
	}

	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "bench", Zone: geo.GeoCircle{Center: home.Offset(0, 60), R: 30},
	}); err != nil {
		b.Fatal(err)
	}

	var p poa.PoA
	for i := 0; i < n; i++ {
		s := poa.Sample{
			Pos:  home.Offset(90, 10*float64(i)*20),
			Time: benchStart.Add(time.Duration(i) * 20 * time.Second),
		}.Canon()
		sig, err := sigcrypto.Sign(teeKey, s.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		p.Append(poa.SignedSample{Sample: s, Sig: sig})
	}
	plaintext, err := poa.EncodePoA(p)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sigcrypto.Seal(rng, srv.EncryptionPub(), plaintext)
	if err != nil {
		b.Fatal(err)
	}
	return srv, resp.DroneID, ct
}

// BenchmarkVerifyPipelineWorkers compares the sequential pipeline
// (Workers: 1 — the paper-fidelity configuration) against the pooled one
// (Workers: 0 = GOMAXPROCS) on a 400-sample PoA. On a multi-core runner
// the parallel variant should verify the same submission at a multiple of
// the sequential rate; on one core the two are equivalent by design.
func BenchmarkVerifyPipelineWorkers(b *testing.B) {
	const samples = 400
	run := func(b *testing.B, workers int) {
		srv, droneID, ct := benchParallelSetup(b, workers, samples)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: ct})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Verdict != protocol.VerdictViolation {
				b.Fatalf("verdict = %v, want repeatable violation", resp.Verdict)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkSubmitPoAThroughput measures aggregate submission throughput
// under concurrent load (b.RunParallel): many callers sharing one server,
// its worker pool and its sharded stores. This is the server-sizing
// number — submissions per second, not per-submission latency.
//
// The violation case is the historical series (repeatable violations, no
// durable state). The memory/wal pair compares storage backends on the
// commit-heavy path — every submission is a unique compliant PoA, so each
// one logs a retention record and a replay digest. Group commit must keep
// the fsync-per-commit WAL backend within ~15% of the in-memory store.
func BenchmarkSubmitPoAThroughput(b *testing.B) {
	b.Run("violation", func(b *testing.B) {
		srv, droneID, ct := benchParallelSetup(b, 0, 20)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: ct})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Verdict != protocol.VerdictViolation {
					b.Fatal("want repeatable violation")
				}
			}
		})
	})
	b.Run("memory", func(b *testing.B) {
		benchThroughputStore(b, storage.NewMemStore())
	})
	b.Run("wal", func(b *testing.B) {
		fs, err := storage.OpenFileStore(b.TempDir(), storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		benchThroughputStore(b, fs)
	})
}

// benchThroughputStore drives b.N unique compliant submissions through a
// store-attached server. Ciphertexts are pregenerated: each reuses the
// same 20 signed samples plus one signed sample of its own, so the replay
// digests differ while the signatures stay valid.
func benchThroughputStore(b *testing.B, st storage.Store) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	srv, err := auditor.OpenServer(auditor.Config{Random: rng}, st, "")
	if err != nil {
		b.Fatal(err)
	}
	opKey := benchKey(b, 1024)
	teeKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(10)), 1024)
	if err != nil {
		b.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&opKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		b.Fatal(err)
	}
	droneID := resp.DroneID

	// No zones registered: a well-formed trace is trivially compliant,
	// so the benchmark isolates signature checking + durable commit.
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	var p poa.PoA
	for i := 0; i < 20; i++ {
		s := poa.Sample{
			Pos:  home.Offset(90, 10*float64(i)*20),
			Time: benchStart.Add(time.Duration(i) * 20 * time.Second),
		}.Canon()
		sig, err := sigcrypto.Sign(teeKey, s.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		p.Append(poa.SignedSample{Sample: s, Sig: sig})
	}
	last := p.Samples[len(p.Samples)-1].Sample
	cts := make([][]byte, b.N)
	for i := range cts {
		// A proof has one byte form, so each ciphertext ends in its own
		// signed hover sample: the digests differ, the trace stays valid.
		s := poa.Sample{Pos: last.Pos, Time: last.Time.Add(time.Second + time.Duration(i)*time.Millisecond)}.Canon()
		sig, err := sigcrypto.Sign(teeKey, s.Marshal())
		if err != nil {
			b.Fatal(err)
		}
		u := poa.PoA{Samples: append(p.Samples[:len(p.Samples):len(p.Samples)], poa.SignedSample{Sample: s, Sig: sig})}
		plaintext, err := poa.EncodePoA(u)
		if err != nil {
			b.Fatal(err)
		}
		if cts[i], err = sigcrypto.Seal(rng, srv.EncryptionPub(), plaintext); err != nil {
			b.Fatal(err)
		}
	}

	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := next.Add(1) - 1
			resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: cts[i]})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Verdict != protocol.VerdictCompliant {
				b.Fatalf("verdict = %v, want compliant", resp.Verdict)
			}
		}
	})
}

// --- Zone rect-query ablation ------------------------------------------------

// benchRegistry builds a registry of n registered zones around the bench
// home point.
func benchRegistry(b *testing.B, n int) *zone.Registry {
	b.Helper()
	r := zone.NewRegistry()
	for _, z := range benchZones(n) {
		if _, err := r.Register("bench", z); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// benchQueryArea is a ~1 km navigation area near the bench home point —
// the shape of rect a zone query or zonesForTrace issues.
func benchQueryArea() geo.Rect {
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	return geo.NewRect(home.Offset(225, 700), home.Offset(45, 700))
}

// BenchmarkZoneQueryRectLinear2000 is the historical O(n) registry scan
// at city scale.
func BenchmarkZoneQueryRectLinear2000(b *testing.B) {
	r := benchRegistry(b, 2000)
	area := benchQueryArea()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.QueryRectLinear(area)) == 0 {
			b.Fatal("query found no zones")
		}
	}
}

// BenchmarkZoneQueryRectIndexed2000 is the same query through the grid
// index the registry now maintains incrementally.
func BenchmarkZoneQueryRectIndexed2000(b *testing.B) {
	r := benchRegistry(b, 2000)
	area := benchQueryArea()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.QueryRect(area)) == 0 {
			b.Fatal("query found no zones")
		}
	}
}

// --- Transport comparison ----------------------------------------------------

// benchTransportSetup registers one drone on a fresh zero-config server.
func benchTransportSetup(b *testing.B) (*auditor.Server, string) {
	b.Helper()
	return benchServerSetup(b, auditor.Config{Random: rand.New(rand.NewSource(9))})
}

// benchServerSetup builds a server from cfg and registers one drone.
func benchServerSetup(b *testing.B, cfg auditor.Config) (*auditor.Server, string) {
	b.Helper()
	srv, err := auditor.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	teeKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(10)), 1024)
	if err != nil {
		b.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&benchKey(b, 1024).PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		b.Fatal(err)
	}
	return srv, resp.DroneID
}

// BenchmarkSubmitThroughput compares the two network doors end to end on
// identical submissions: per-request HTTP/JSON vs the persistent batched
// binary wire transport. The payload is a deliberately undecryptable
// 16-byte ciphertext — the pipeline rejects it at the decrypt stage in
// microseconds with a repeatable violation verdict — so the numbers
// isolate transport cost (encoding, framing, syscalls, allocations,
// connection handling) rather than RSA throughput, which is identical on
// both paths. This pair is the CI regression gate: scripts/bench.sh
// fails when binary stops beating http.
func BenchmarkSubmitThroughput(b *testing.B) {
	ct := []byte("not-a-ciphertext") // wrong length for RSA: instant decrypt failure

	type poaSubmitter interface {
		SubmitPoA(protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error)
	}
	submitLoop := func(b *testing.B, api poaSubmitter, droneID string) {
		b.Helper()
		// Warm the connection before timing so neither side pays setup
		// inside the measured region.
		resp, err := api.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: ct})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Verdict != protocol.VerdictViolation {
			b.Fatalf("verdict = %v, want repeatable violation", resp.Verdict)
		}
		b.ReportAllocs()
		// A throughput benchmark needs offered load: enough concurrent
		// submitters to keep connections (and the binary door's batches)
		// busy regardless of GOMAXPROCS.
		b.SetParallelism(16)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				resp, err := api.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: ct})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Verdict != protocol.VerdictViolation {
					b.Fatal("want repeatable violation")
				}
			}
		})
	}

	b.Run("http", func(b *testing.B) {
		srv, droneID := benchTransportSetup(b)
		hs := httptest.NewServer(auditor.NewHandler(srv))
		defer hs.Close()
		submitLoop(b, operator.NewHTTPAuditor(hs.URL, nil), droneID)
	})

	b.Run("binary", func(b *testing.B) {
		srv, droneID := benchTransportSetup(b)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ws := auditor.NewWireServer(srv, auditor.WireOptions{})
		go func() { _ = ws.Serve(lis) }()
		defer ws.Close()
		// BatchSize is half the submitter count so batches fill from
		// concurrency alone; the short flush interval only catches
		// stragglers instead of pacing the pipeline.
		wc := operator.NewWireClient(lis.Addr().String(), operator.WireClientOptions{
			BatchSize:     8,
			FlushInterval: 100 * time.Microsecond,
		})
		defer wc.Close()
		submitLoop(b, wc, droneID)
	})

	// The commit sub-benchmark is about payload size rather than
	// transport: the same 600-sample TEE-signed flight costs ~85 KB as
	// a full per-sample-signed PoA but only ~5 KB as a Merkle-commitment
	// envelope. Both ciphertext sizes are reported per op so
	// scripts/bench.sh can gate the ratio (commit must stay at or under
	// half of full); the timed loop drives the commit-door pipeline
	// (decrypt → decode → root signature → predicates) end to end.
	b.Run("commit", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		srv, err := auditor.NewServer(auditor.Config{Random: rng})
		if err != nil {
			b.Fatal(err)
		}
		teeKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(10)), 1024)
		if err != nil {
			b.Fatal(err)
		}
		opPub, err := sigcrypto.MarshalPublicKey(&benchKey(b, 1024).PublicKey)
		if err != nil {
			b.Fatal(err)
		}
		teePub, err := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
		if err != nil {
			b.Fatal(err)
		}
		reg, err := srv.RegisterDrone(protocol.RegisterDroneRequest{
			OperatorPub: opPub, TEEPub: teePub, Disclosure: poa.DisclosureCommit,
		})
		if err != nil {
			b.Fatal(err)
		}

		// The trace flies straight through the zone, so the TEE-computed
		// clearance predicate is negative and every submission settles
		// as the same predicate violation — which releases its replay
		// claim, keeping one ciphertext resubmittable b.N times.
		home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
		z := geo.GeoCircle{Center: home.Offset(0, 50), R: 100}
		if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{Owner: "bench", Zone: z}); err != nil {
			b.Fatal(err)
		}

		const nSamples = 600
		var p poa.PoA
		for i := 0; i < nSamples; i++ {
			s := poa.Sample{
				Pos:  home.Offset(0, 10*float64(i)),
				Time: benchStart.Add(time.Duration(i) * time.Second),
			}.Canon()
			sig, err := sigcrypto.Sign(teeKey, s.Marshal())
			if err != nil {
				b.Fatal(err)
			}
			p.Append(poa.SignedSample{Sample: s, Sig: sig})
		}

		fullPlain, err := poa.EncodePoA(p)
		if err != nil {
			b.Fatal(err)
		}
		fullCT, err := sigcrypto.Seal(rng, srv.EncryptionPub(), fullPlain)
		if err != nil {
			b.Fatal(err)
		}
		_, _, env, err := privacy.CommitTrace(p, []geo.GeoCircle{z}, geo.MaxDroneSpeedMPS, rng)
		if err != nil {
			b.Fatal(err)
		}
		if env.Sig, err = sigcrypto.Sign(teeKey, env.SigningBytes()); err != nil {
			b.Fatal(err)
		}
		commitCT, err := sigcrypto.Seal(rng, srv.EncryptionPub(), privacy.EncodeCommitEnvelope(*env))
		if err != nil {
			b.Fatal(err)
		}
		submit := func() {
			resp, err := srv.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: reg.DroneID, EncryptedEnvelope: commitCT})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Verdict != protocol.VerdictViolation {
				b.Fatalf("verdict = %v, want repeatable violation", resp.Verdict)
			}
		}
		submit() // warm: pin the repeatable-violation verdict before timing
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit()
		}
		// After the loop: ResetTimer would have deleted these.
		b.ReportMetric(float64(len(commitCT)), "commitbytes/op")
		b.ReportMetric(float64(len(fullCT)), "fullbytes/op")
	})

	// The cluster pair measures scale-out rather than transport: the same
	// submissions against a 1-node and a 4-node cluster whose per-node
	// verification capacity is pinned (Workers=1, MaxInflight=1, plus a
	// fixed simulated verification budget inside the admission slot — see
	// Config.SimVerifyCost for why an off-CPU wait, not spin, is the
	// honest probe on a single-core box). Each drone is pinned to one
	// submitter goroutine targeting its owning node, so the ns/op ratio
	// cluster-1node ÷ cluster-4node isolates cross-node overlap: a
	// routing layer that serialised nodes against each other would hold
	// the ratio near 1. scripts/bench.sh gates the ratio at > 2.
	b.Run("cluster-1node", func(b *testing.B) { benchClusterSubmit(b, 1) })
	b.Run("cluster-4node", func(b *testing.B) { benchClusterSubmit(b, 4) })
}

const (
	// benchClusterVerifyCost is the fixed per-submission verification
	// budget each node pays inside its single admission slot.
	benchClusterVerifyCost = 2 * time.Millisecond
	// benchClusterDronesPerNode submitter goroutines per node keep that
	// slot saturated without any drone ever queueing behind itself.
	benchClusterDronesPerNode = 4
)

// benchClusterSubmit drives PoA submissions against an in-process n-node
// cluster. Drones are registered until every node owns an equal share,
// and each is submitted through a client for its owning node — the
// benchmark routes client-side, as a map-aware operator does, so
// forwarding never enters the measured path.
func benchClusterSubmit(b *testing.B, n int) {
	b.Helper()
	ct := []byte("not-a-ciphertext") // as in the transport pair: instant violation

	encKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(11)), 1024)
	if err != nil {
		b.Fatal(err)
	}

	// Listeners first so every node knows the full address set; the full
	// seed list makes the very first map complete, no gossip warm-up.
	listeners := make([]net.Listener, n)
	nodes := make([]cluster.Node, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = lis
		nodes[i] = cluster.Node{ID: fmt.Sprintf("bench-node-%d", i), Addr: lis.Addr().String()}
	}
	routers := make([]*auditor.Router, n)
	clients := make(map[string]*operator.HTTPAuditor, n)
	for i := range routers {
		r, err := auditor.NewRouter(auditor.RouterConfig{
			Self:  nodes[i],
			Seeds: nodes,
			Server: auditor.Config{
				Random:        rand.New(rand.NewSource(int64(100 + i))),
				EncryptionKey: encKey,
				Workers:       1,
				MaxInflight:   1,
				SimVerifyCost: benchClusterVerifyCost,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		routers[i] = r
		b.Cleanup(func() { r.Close() })
		hs := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: auditor.NewHandler(r)},
		}
		hs.Start()
		b.Cleanup(hs.Close)
		clients[nodes[i].ID] = operator.NewHTTPAuditor(hs.URL, nil)
	}

	// One operator/TEE keypair serves every registration: key generation
	// is setup cost, not what this benchmark measures.
	teeKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(12)), 1024)
	if err != nil {
		b.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&benchKey(b, 1024).PublicKey)
	if err != nil {
		b.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
	if err != nil {
		b.Fatal(err)
	}

	type pinnedDrone struct {
		id  string
		api *operator.HTTPAuditor
	}
	var drones []pinnedDrone
	owned := make(map[string]int, n)
	m := routers[0].Map()
	for attempts := 0; len(drones) < n*benchClusterDronesPerNode; attempts++ {
		if attempts > 100*n*benchClusterDronesPerNode {
			b.Fatalf("could not balance %d drones across %d nodes", n*benchClusterDronesPerNode, n)
		}
		resp, err := routers[0].RegisterDroneCtx(context.Background(),
			protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
		if err != nil {
			b.Fatal(err)
		}
		owner, ok := m.Owner(resp.DroneID)
		if !ok {
			b.Fatal("registered drone has no owner")
		}
		if owned[owner.ID] >= benchClusterDronesPerNode {
			continue // this node's share is full; try another random ID
		}
		owned[owner.ID]++
		drones = append(drones, pinnedDrone{id: resp.DroneID, api: clients[owner.ID]})
	}

	// Warm every connection and pin the repeatable-violation verdict
	// before timing.
	for _, d := range drones {
		resp, err := d.api.SubmitPoA(protocol.SubmitPoARequest{DroneID: d.id, EncryptedPoA: ct})
		if err != nil {
			b.Fatal(err)
		}
		if resp.Verdict != protocol.VerdictViolation {
			b.Fatalf("verdict = %v, want repeatable violation", resp.Verdict)
		}
	}

	// Hand-rolled load loop instead of RunParallel: the submitter count
	// must equal the drone count exactly (RunParallel scales goroutines
	// by GOMAXPROCS, which would either starve the nodes or overflow the
	// per-drone fairness queues depending on the machine).
	b.ReportAllocs()
	b.ResetTimer()
	var (
		next int64
		wg   sync.WaitGroup
	)
	for _, d := range drones {
		wg.Add(1)
		go func(d pinnedDrone) {
			defer wg.Done()
			for atomic.AddInt64(&next, 1) <= int64(b.N) {
				resp, err := d.api.SubmitPoA(protocol.SubmitPoARequest{DroneID: d.id, EncryptedPoA: ct})
				if err != nil {
					b.Error(err)
					return
				}
				if resp.Verdict != protocol.VerdictViolation {
					b.Error("want repeatable violation")
					return
				}
			}
		}(d)
	}
	wg.Wait()
}

// BenchmarkVerdictSLO isolates the cost of the sliding-window SLO
// tracker on the hot path: the same instant-violation submission
// (undecryptable 16-byte ciphertext, rejected at the decrypt stage)
// against a metrics-enabled server without (bare) and with (slo) the
// SLO engine attached. Both runs pay the registry instrumentation the
// server always had, so the ratio isolates exactly what the tracker
// adds per verdict: two mutex-guarded window observes plus the
// shed/admitted accounting. The pair is a CI gate: scripts/bench.sh
// fails when slo costs more than 5% over bare.
func BenchmarkVerdictSLO(b *testing.B) {
	run := func(b *testing.B, instrument bool) {
		cfg := auditor.Config{
			Random:  rand.New(rand.NewSource(9)),
			Metrics: obs.NewRegistry(nil),
		}
		if instrument {
			cfg.SLO = obs.NewSLO(obs.SLOOptions{})
			cfg.SLO.Register(cfg.Metrics, auditor.MetricSLOPrefix)
		}
		srv, droneID := benchServerSetup(b, cfg)
		ct := []byte("not-a-ciphertext")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: ct})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Verdict != protocol.VerdictViolation {
				b.Fatal("want repeatable violation")
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("slo", func(b *testing.B) { run(b, true) })
}
