package auditor

import (
	"crypto/rsa"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

// suiteKeys is the suite-parameterised analogue of droneKeys: the operator
// key stays RSA (operator identity is outside the suite registry), the
// TEE sign key belongs to the suite under test.
type suiteKeys struct {
	op  *rsa.PrivateKey
	tee sigcrypto.PrivateKey
}

// newSuiteFixture builds a server with one drone registered under the
// given signature suite.
func newSuiteFixture(t *testing.T, suiteID string) (*Server, string, suiteKeys) {
	t.Helper()
	return newSuiteFixtureConfig(t, suiteID, Config{
		Clock:   obs.ClockFunc(func() time.Time { return t0 }),
		Metrics: obs.NewRegistry(nil),
	})
}

// newSuiteFixtureConfig is newSuiteFixture with an explicit config.
func newSuiteFixtureConfig(t *testing.T, suiteID string, cfg Config) (*Server, string, suiteKeys) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	if cfg.Random == nil {
		cfg.Random = rng
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, keys := registerSuiteDrone(t, srv, suiteID, rng)
	return srv, id, keys
}

// registerSuiteDrone registers one more drone under suiteID.
func registerSuiteDrone(t *testing.T, srv *Server, suiteID string, rng *rand.Rand) (string, suiteKeys) {
	t.Helper()
	op, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sigcrypto.SuiteByID(suiteID)
	if err != nil {
		t.Fatal(err)
	}
	teeKey, err := suite.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&op.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	teePub, err := teeKey.Public().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub, Suite: suiteID})
	if err != nil {
		t.Fatal(err)
	}
	return resp.DroneID, suiteKeys{op: op, tee: teeKey}
}

// suiteSignedTrace builds a trace signed sample-by-sample with the suite
// key at epoch 0.
func suiteSignedTrace(t *testing.T, key sigcrypto.PrivateKey, start geo.LatLon, bearing, speed float64, n int, gap time.Duration) poa.PoA {
	t.Helper()
	var p poa.PoA
	for i := 0; i < n; i++ {
		s := poa.Sample{
			Pos:  start.Offset(bearing, speed*float64(i)*gap.Seconds()),
			Time: t0.Add(time.Duration(i) * gap),
		}.Canon()
		sig, err := key.Sign(s.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		p.Append(poa.SignedSample{Sample: s, Sig: sig})
	}
	return p
}

// suiteBatchEnvelope seals a trace in the §VII-A1b batch envelope under
// the suite key.
func suiteBatchEnvelope(t *testing.T, srv *Server, key sigcrypto.PrivateKey, p poa.PoA) []byte {
	t.Helper()
	samples := p.Alibi()
	sig, err := key.Sign(poa.MarshalBatch(samples))
	if err != nil {
		t.Fatal(err)
	}
	data, err := poa.EncodeBatchPoA(poa.BatchPoA{Samples: samples, Sig: sig})
	if err != nil {
		t.Fatal(err)
	}
	return encryptBytes(t, srv, data)
}

// TestCrossSuiteVerdictParity extends the entry-point parity property
// across signature suites: the same trace against the same zone yields
// the same verdict through every door — submit, batch, MAC, stream and
// accusation — whether the drone registered with RSA-2048 or Ed25519.
func TestCrossSuiteVerdictParity(t *testing.T) {
	cases := []struct {
		name string
		n    int
		gap  time.Duration
		zone geo.GeoCircle
		want protocol.Verdict
	}{
		{
			name: "compliant",
			n:    10, gap: time.Second,
			zone: geo.GeoCircle{Center: urbana.Offset(90, 5000), R: 100},
			want: protocol.VerdictCompliant,
		},
		{
			name: "violating",
			n:    10, gap: time.Second,
			zone: geo.GeoCircle{Center: urbana.Offset(0, 50), R: 100},
			want: protocol.VerdictViolation,
		},
	}
	for _, suiteID := range []string{sigcrypto.SuiteRSA2048, sigcrypto.SuiteEd25519} {
		for _, tc := range cases {
			t.Run(suiteID+"/"+tc.name, func(t *testing.T) {
				verdicts := map[string]protocol.Verdict{}
				trace := func(keys suiteKeys) poa.PoA {
					return suiteSignedTrace(t, keys.tee, urbana, 0, 10, tc.n, tc.gap)
				}

				{ // regular per-sample-signed path
					srv, id, keys := newSuiteFixture(t, suiteID)
					mustRegisterZone(t, srv, tc.zone)
					resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, trace(keys))})
					if err != nil {
						t.Fatal(err)
					}
					verdicts["submit"] = resp.Verdict
				}

				{ // batch envelope
					srv, id, keys := newSuiteFixture(t, suiteID)
					mustRegisterZone(t, srv, tc.zone)
					resp, err := srv.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: id, EncryptedBatch: suiteBatchEnvelope(t, srv, keys.tee, trace(keys))})
					if err != nil {
						t.Fatal(err)
					}
					verdicts["batch"] = resp.Verdict
				}

				{ // symmetric (MAC) envelope — suite-independent by design,
					// but it must behave identically for a suite-registered drone
					srv, id, keys := newSuiteFixture(t, suiteID)
					mustRegisterZone(t, srv, tc.zone)
					key := []byte("0123456789abcdef0123456789abcdef")
					sess, err := srv.StartSession(protocol.StartSessionRequest{DroneID: id, WrappedKey: encryptBytes(t, srv, key)})
					if err != nil {
						t.Fatal(err)
					}
					resp, err := srv.SubmitMACPoA(protocol.SubmitMACPoARequest{DroneID: id, SessionID: sess.SessionID, EncryptedPoA: macEnvelope(t, srv, key, trace(keys))})
					if err != nil {
						t.Fatal(err)
					}
					verdicts["mac"] = resp.Verdict
				}

				{ // real-time stream path
					srv, id, keys := newSuiteFixture(t, suiteID)
					mustRegisterZone(t, srv, tc.zone)
					open, err := srv.OpenStream(protocol.OpenStreamRequest{DroneID: id})
					if err != nil {
						t.Fatal(err)
					}
					for _, ss := range trace(keys).Samples {
						if _, err := srv.StreamSample(protocol.StreamSampleRequest{StreamID: open.StreamID, Sample: ss}); err != nil {
							t.Fatal(err)
						}
					}
					resp, err := srv.CloseStream(protocol.CloseStreamRequest{StreamID: open.StreamID})
					if err != nil {
						t.Fatal(err)
					}
					verdicts["stream"] = resp.Verdict
				}

				{ // accusation re-check over the retained trace
					srv, id, keys := newSuiteFixture(t, suiteID)
					resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, trace(keys))})
					if err != nil || resp.Verdict != protocol.VerdictCompliant {
						t.Fatalf("pre-accusation submit: %v / %v (%s)", err, resp.Verdict, resp.Reason)
					}
					zoneID := mustRegisterZone(t, srv, tc.zone)
					mid := t0.Add(tc.gap / 2)
					acc, err := srv.HandleAccusation(id, zoneID, mid)
					if err != nil {
						t.Fatal(err)
					}
					verdicts["accusation"] = acc.Verdict
				}

				for path, v := range verdicts {
					if v != tc.want {
						t.Errorf("%s verdict = %v, want %v", path, v, tc.want)
					}
				}
			})
		}
	}
}

// TestMixedFleetVerification registers an RSA-2048 drone and an Ed25519
// drone on the same server and checks both verify under their own key —
// and that swapping the traces (an Ed25519-signed trace submitted by the
// RSA drone) is a violation, not a pass or an internal error.
func TestMixedFleetVerification(t *testing.T) {
	srv, rsaID, rsaKeys := newSuiteFixture(t, sigcrypto.SuiteRSA2048)
	rng := rand.New(rand.NewSource(99))
	edID, edKeys := registerSuiteDrone(t, srv, sigcrypto.SuiteEd25519, rng)

	rsaTrace := suiteSignedTrace(t, rsaKeys.tee, urbana, 0, 10, 10, time.Second)
	edTrace := suiteSignedTrace(t, edKeys.tee, urbana.Offset(90, 200), 0, 10, 10, time.Second)

	for _, tc := range []struct {
		name  string
		drone string
		trace poa.PoA
		want  protocol.Verdict
	}{
		{"rsa drone, rsa trace", rsaID, rsaTrace, protocol.VerdictCompliant},
		{"ed25519 drone, ed25519 trace", edID, edTrace, protocol.VerdictCompliant},
		{"rsa drone, ed25519 trace", rsaID, edTrace, protocol.VerdictViolation},
		{"ed25519 drone, rsa trace", edID, rsaTrace, protocol.VerdictViolation},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: tc.drone, EncryptedPoA: encryptFor(t, srv, tc.trace)})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Verdict != tc.want {
				t.Errorf("verdict = %v (%s), want %v", resp.Verdict, resp.Reason, tc.want)
			}
		})
	}
}

// TestRegisterDroneSuiteNegotiation covers the registration-time suite
// rules: envelope mismatch and disallowed suites are rejected.
func TestRegisterDroneSuiteNegotiation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	op, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&op.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sigcrypto.SuiteByID(sigcrypto.SuiteEd25519)
	if err != nil {
		t.Fatal(err)
	}
	edKey, err := suite.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	edPub, err := edKey.Public().Marshal()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("suite mismatch rejected", func(t *testing.T) {
		srv, err := NewServer(Config{Random: rng})
		if err != nil {
			t.Fatal(err)
		}
		_, err = srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: edPub, Suite: sigcrypto.SuiteRSA2048})
		if err == nil {
			t.Fatal("registering an ed25519 key as rsa2048 succeeded")
		}
	})

	t.Run("disallowed suite rejected", func(t *testing.T) {
		srv, err := NewServer(Config{Random: rng, AllowedSuites: []string{sigcrypto.SuiteRSA2048}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: edPub}); err == nil {
			t.Fatal("registering a disallowed suite succeeded")
		}
	})

	t.Run("allowed suite accepted", func(t *testing.T) {
		srv, err := NewServer(Config{Random: rng, AllowedSuites: []string{sigcrypto.SuiteEd25519}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: edPub})
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := srv.drones.get(resp.DroneID)
		if !ok || rec.Suite != sigcrypto.SuiteEd25519 {
			t.Fatalf("record suite = %q, want ed25519", rec.Suite)
		}
	})
}
