package auditor

import (
	"crypto/rsa"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

var (
	t0     = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	urbana = geo.LatLon{Lat: 40.1106, Lon: -88.2073}
)

// droneKeys holds both drone-side keypairs so tests can sign (or forge) on
// either side of the protocol without a full TEE stack.
type droneKeys struct {
	op  *rsa.PrivateKey // D-
	tee *rsa.PrivateKey // T-
}

// newFixture builds a server with one registered drone and returns the
// drone's keys.
func newFixture(t *testing.T) (*Server, string, droneKeys) {
	t.Helper()
	return newFixtureConfig(t, Config{
		Clock:   obs.ClockFunc(func() time.Time { return t0 }),
		Metrics: obs.NewRegistry(nil),
	})
}

// newFixtureConfig is newFixture with an explicit config; the Random
// source is filled in when unset.
func newFixtureConfig(t *testing.T, cfg Config) (*Server, string, droneKeys) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	if cfg.Random == nil {
		cfg.Random = rng
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	op, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	teeKey, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&op.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		t.Fatal(err)
	}
	return srv, resp.DroneID, droneKeys{op: op, tee: teeKey}
}

// signedTrace builds a PoA of TEE-signed samples along a straight line.
func signedTrace(t *testing.T, keys droneKeys, start geo.LatLon, bearing, speed float64, n int, gap time.Duration) poa.PoA {
	t.Helper()
	var p poa.PoA
	for i := 0; i < n; i++ {
		s := poa.Sample{
			Pos:  start.Offset(bearing, speed*float64(i)*gap.Seconds()),
			Time: t0.Add(time.Duration(i) * gap),
		}.Canon()
		sig, err := sigcrypto.Sign(keys.tee, s.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		p.Append(poa.SignedSample{Sample: s, Sig: sig})
	}
	return p
}

// encryptFor encrypts a PoA to the server, as the Adapter would.
func encryptFor(t *testing.T, srv *Server, p poa.PoA) []byte {
	t.Helper()
	return encryptPoA(t, srv.EncryptionPub(), p)
}

func TestRegisterDroneIssuesIDs(t *testing.T) {
	srv, id, keys := newFixture(t)
	if id == "" {
		t.Fatal("empty drone id")
	}
	opPub, _ := sigcrypto.MarshalPublicKey(&keys.op.PublicKey)
	teePub, _ := sigcrypto.MarshalPublicKey(&keys.tee.PublicKey)
	resp2, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.DroneID == id {
		t.Error("drone IDs must be unique")
	}
}

func TestRegisterDroneBadKeys(t *testing.T) {
	srv, _, keys := newFixture(t)
	opPub, _ := sigcrypto.MarshalPublicKey(&keys.op.PublicKey)
	if _, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: "junk", TEEPub: opPub}); err == nil {
		t.Error("bad operator key accepted")
	}
	if _, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: "junk"}); err == nil {
		t.Error("bad tee key accepted")
	}
}

func TestZoneQueryFlow(t *testing.T) {
	srv, id, keys := newFixture(t)
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "alice", Zone: geo.GeoCircle{Center: urbana, R: 100}, OwnershipProof: "deed",
	}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	nonce, err := protocol.NewNonce(rng)
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.ZoneQueryRequest{
		DroneID: id,
		Area:    geo.NewRect(urbana.Offset(225, 5000), urbana.Offset(45, 5000)),
		Nonce:   nonce,
	}
	if err := protocol.SignZoneQuery(&req, keys.op); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.ZoneQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Zones) != 1 {
		t.Fatalf("zones = %d, want 1", len(resp.Zones))
	}

	// Replaying the same nonce must fail.
	if _, err := srv.ZoneQuery(req); !errors.Is(err, protocol.ErrBadNonce) {
		t.Errorf("replay err = %v, want ErrBadNonce", err)
	}
}

func TestZoneQueryRejectsBadSignature(t *testing.T) {
	srv, id, _ := newFixture(t)
	rng := rand.New(rand.NewSource(6))
	attacker, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := protocol.NewNonce(rng)
	req := protocol.ZoneQueryRequest{
		DroneID: id,
		Area:    geo.NewRect(urbana.Offset(225, 5000), urbana.Offset(45, 5000)),
		Nonce:   nonce,
	}
	// Signed with the wrong key: the attacker does not hold D-.
	if err := protocol.SignZoneQuery(&req, attacker); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ZoneQuery(req); !errors.Is(err, protocol.ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestZoneQueryUnknownDrone(t *testing.T) {
	srv, _, keys := newFixture(t)
	rng := rand.New(rand.NewSource(6))
	nonce, _ := protocol.NewNonce(rng)
	req := protocol.ZoneQueryRequest{DroneID: "drone-9999", Area: geo.Rect{}, Nonce: nonce}
	if err := protocol.SignZoneQuery(&req, keys.op); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ZoneQuery(req); !errors.Is(err, ErrUnknownDrone) {
		t.Errorf("err = %v, want ErrUnknownDrone", err)
	}
}

func TestSubmitPoACompliant(t *testing.T) {
	srv, id, keys := newFixture(t)
	// Zone 5 km north of the flight line.
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "alice", Zone: geo.GeoCircle{Center: urbana.Offset(0, 5000), R: 100},
	}); err != nil {
		t.Fatal(err)
	}

	p := signedTrace(t, keys, urbana, 90, 10, 30, time.Second)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %v (%s)", resp.Verdict, resp.Reason)
	}
	if srv.Status().RetainedPoAs != 1 {
		t.Errorf("retained = %d, want 1", srv.Status().RetainedPoAs)
	}
}

func TestSubmitPoAInsufficient(t *testing.T) {
	srv, id, keys := newFixture(t)
	// Zone right next to the flight line.
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "bob", Zone: geo.GeoCircle{Center: urbana.Offset(0, 60), R: 30},
	}); err != nil {
		t.Fatal(err)
	}

	// Sparse 20 s gaps: travel budget 894 m vs boundary ~30 m.
	p := signedTrace(t, keys, urbana, 90, 10, 5, 20*time.Second)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Fatalf("verdict = %v, want violation", resp.Verdict)
	}
	if resp.InsufficientPairs == 0 {
		t.Error("expected insufficient pairs to be reported")
	}
	if srv.Status().RetainedPoAs != 0 {
		t.Error("violating PoA should not be retained")
	}
}

func TestSubmitPoAForgedSample(t *testing.T) {
	srv, id, keys := newFixture(t)
	p := signedTrace(t, keys, urbana, 90, 10, 10, time.Second)
	// Tamper with one sample after signing — the forged-route attack.
	p.Samples[4].Sample.Pos.Lat += 0.01

	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Fatalf("forged sample verdict = %v, want violation", resp.Verdict)
	}
}

func TestSubmitPoAWrongTEEKey(t *testing.T) {
	srv, id, _ := newFixture(t)
	rng := rand.New(rand.NewSource(9))
	other, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	// Signed by a different TEE (relay attack: PoA from another drone).
	p := signedTrace(t, droneKeys{tee: other}, urbana, 90, 10, 10, time.Second)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Fatalf("relayed PoA verdict = %v, want violation", resp.Verdict)
	}
}

func TestSubmitPoASpeedInfeasible(t *testing.T) {
	srv, id, keys := newFixture(t)
	// 1 km hops at 1 s gaps: 1000 m/s ≫ vmax. Physically impossible.
	p := signedTrace(t, keys, urbana, 90, 1000, 5, time.Second)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Fatalf("infeasible trace verdict = %v, want violation", resp.Verdict)
	}
}

func TestSubmitPoAGarbage(t *testing.T) {
	srv, id, _ := newFixture(t)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: []byte("garbage")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation {
		t.Error("garbage ciphertext should be a violation")
	}

	if _, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: "nope", EncryptedPoA: nil}); !errors.Is(err, ErrUnknownDrone) {
		t.Errorf("err = %v, want ErrUnknownDrone", err)
	}
}

func TestAccusationFlow(t *testing.T) {
	srv, id, keys := newFixture(t)
	zoneID, err := srv.Zones().Register("alice", geo.GeoCircle{Center: urbana.Offset(0, 5000), R: 100})
	if err != nil {
		t.Fatal(err)
	}

	p := signedTrace(t, keys, urbana, 90, 10, 30, time.Second)
	if _, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)}); err != nil {
		t.Fatal(err)
	}

	// Zone owner reports a sighting at t0+10 s: the retained alibi
	// exonerates the drone.
	resp, err := srv.HandleAccusation(id, zoneID, t0.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("verdict = %v, want compliant", resp.Verdict)
	}

	// An accusation outside the covered window cannot be answered.
	if _, err := srv.HandleAccusation(id, zoneID, t0.Add(time.Hour)); !errors.Is(err, ErrNoPoA) {
		t.Errorf("err = %v, want ErrNoPoA", err)
	}
	if _, err := srv.HandleAccusation("nope", zoneID, t0); !errors.Is(err, ErrUnknownDrone) {
		t.Errorf("err = %v, want ErrUnknownDrone", err)
	}
	if _, err := srv.HandleAccusation(id, "zone-999", t0); !errors.Is(err, ErrUnknownZone) {
		t.Errorf("err = %v, want ErrUnknownZone", err)
	}
}

func TestRetentionPurge(t *testing.T) {
	clock := obs.NewFakeClock(t0)
	rng := rand.New(rand.NewSource(11))
	srv, err := NewServer(Config{
		Random:    rng,
		Retention: 48 * time.Hour,
		Clock:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	op, _ := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	teeKey, _ := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	opPub, _ := sigcrypto.MarshalPublicKey(&op.PublicKey)
	teePub, _ := sigcrypto.MarshalPublicKey(&teeKey.PublicKey)
	reg, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		t.Fatal(err)
	}

	p := signedTrace(t, droneKeys{tee: teeKey}, urbana, 90, 10, 10, time.Second)
	if _, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: reg.DroneID, EncryptedPoA: encryptFor(t, srv, p)}); err != nil {
		t.Fatal(err)
	}
	if srv.Status().RetainedPoAs != 1 {
		t.Fatal("PoA not retained")
	}

	// One day later: still retained.
	clock.Set(t0.Add(24 * time.Hour))
	if removed := srv.PurgeExpired(); removed != 0 {
		t.Errorf("purged %d too early", removed)
	}
	// Three days later: purged.
	clock.Set(t0.Add(72 * time.Hour))
	if removed := srv.PurgeExpired(); removed != 1 {
		t.Errorf("purged %d, want 1", removed)
	}
	if srv.Status().RetainedPoAs != 0 {
		t.Error("retention store not emptied")
	}
}

func TestAccusationCannotExonerate(t *testing.T) {
	srv, id, keys := newFixture(t)
	// Zone close to the trace with sparse retained samples: the covering
	// pair cannot rule out presence.
	zoneID, err := srv.Zones().Register("alice", geo.GeoCircle{Center: urbana.Offset(0, 20000), R: 100})
	if err != nil {
		t.Fatal(err)
	}
	nearID, err := srv.Zones().Register("bob", geo.GeoCircle{Center: urbana.Offset(0, 21000), R: 100})
	if err != nil {
		t.Fatal(err)
	}
	_ = zoneID

	// Submit a compliant trace far from both zones (they are ~20 km away,
	// pairs 1 s apart → sufficient).
	p := signedTrace(t, keys, urbana, 90, 10, 30, time.Second)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("submit: %v / %v (%s)", err, resp.Verdict, resp.Reason)
	}

	// An accusation against the distant zone: exonerated (pairs cannot
	// reach 20 km in 1 s).
	acc, err := srv.HandleAccusation(id, nearID, t0.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Verdict != protocol.VerdictCompliant {
		t.Errorf("distant zone accusation = %v", acc.Verdict)
	}

	// Now register a zone right on the trace and accuse: the retained
	// pair is 1 s apart with the boundary only ~40 m away — the sum of
	// boundary distances (~80 m) exceeds the 45 m budget, so still
	// exonerated; shrink the margin by using a zone overlapping the
	// trace: the samples were inside it, nothing can exonerate.
	onTraceID, err := srv.Zones().Register("carol", geo.GeoCircle{Center: urbana.Offset(90, 100), R: 50})
	if err != nil {
		t.Fatal(err)
	}
	acc, err = srv.HandleAccusation(id, onTraceID, t0.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Verdict != protocol.VerdictViolation {
		t.Errorf("on-trace zone accusation = %v, want violation", acc.Verdict)
	}
}
func TestRegisterPolygonZone(t *testing.T) {
	srv, _, _ := newFixture(t)

	// A 60x80 m rectangular property: SEC radius 50 m.
	verts := []geo.LatLon{
		urbana.Offset(90, 0).Offset(0, 0),
		urbana.Offset(90, 60),
		urbana.Offset(90, 60).Offset(0, 80),
		urbana.Offset(0, 80),
	}
	resp, err := srv.RegisterPolygonZone(protocol.RegisterPolygonZoneRequest{
		Owner: "alice", Vertices: verts, OwnershipProof: "deed",
	})
	if err != nil {
		t.Fatal(err)
	}
	z, ok := srv.Zones().Get(resp.ZoneID)
	if !ok {
		t.Fatal("polygon zone not registered")
	}
	if z.Circle.R < 48 || z.Circle.R > 52 {
		t.Errorf("SEC radius = %v, want ~50", z.Circle.R)
	}
	// The circle must cover every vertex (small slack: boundary vertices
	// re-measured with haversine land within centimetres of R).
	for i, v := range verts {
		if d := z.Circle.BoundaryDistMeters(v); d > 0.05 {
			t.Errorf("vertex %d is %.3f m outside the enclosing circle", i, d)
		}
	}

	// Validation.
	if _, err := srv.RegisterPolygonZone(protocol.RegisterPolygonZoneRequest{
		Owner: "x", Vertices: verts[:2],
	}); err == nil {
		t.Error("2-vertex polygon accepted")
	}
	if _, err := srv.RegisterPolygonZone(protocol.RegisterPolygonZoneRequest{
		Owner: "x", Vertices: []geo.LatLon{{Lat: 91}, {Lat: 0}, {Lat: 1}},
	}); err == nil {
		t.Error("invalid vertex accepted")
	}
}
