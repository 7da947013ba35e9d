package operator

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
)

var (
	t0     = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	urbana = geo.LatLon{Lat: 40.1106, Lon: -88.2073}
)

// stack is a complete end-to-end fixture: auditor + TrustZone drone.
type stack struct {
	srv   *auditor.Server
	drone *Drone
	clock *tee.SimClock
	dev   *tee.Device
}

func newStack(t *testing.T, api protocol.API, srv *auditor.Server) *stack {
	t.Helper()
	return newSeededStack(t, api, srv, 1)
}

// newSeededStack is newStack with the drone's keys, nonces and envelope
// randomness drawn from the given seed: drones sharing an auditor need
// distinct seeds, or their zone-query nonces may collide.
func newSeededStack(t *testing.T, api protocol.API, srv *auditor.Server, seed int64) *stack {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	vault, err := tee.ManufactureSuiteVault(rng, sigcrypto.SuiteRSA1024)
	if err != nil {
		t.Fatal(err)
	}
	clock := tee.NewSimClock(t0)
	dev := tee.NewDevice(clock, vault)

	d, err := NewDrone(api, srv.EncryptionPub(), dev, clock, sigcrypto.KeySize1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{srv: srv, drone: d, clock: clock, dev: dev}
}

// withReceiver installs a GPS sampler TA over the given route.
func (s *stack) withReceiver(t *testing.T, route *trace.Route, rateHz float64) *gps.Receiver {
	t.Helper()
	rx, err := gps.NewReceiver(route, rateHz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tee.NewGPSSampler(s.dev, gps.NewDriver(rx), rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	return rx
}

func newInProcessStack(t *testing.T) *stack {
	t.Helper()
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	return newStack(t, srv, srv)
}

func TestEndToEndCompliantFlight(t *testing.T) {
	s := newInProcessStack(t)

	// A zone 2 km north of the flight corridor.
	if _, err := s.srv.Zones().Register("alice", geo.GeoCircle{Center: urbana.Offset(0, 2000), R: 100}); err != nil {
		t.Fatal(err)
	}

	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)

	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	if s.drone.ID() == "" {
		t.Fatal("no drone id after registration")
	}

	// Pre-flight zone query over the corridor.
	area := geo.NewRect(urbana.Offset(225, 3000), urbana.Offset(90, 1500).Offset(45, 3000))
	zones, err := s.drone.QueryZones(area)
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 1 {
		t.Fatalf("queried zones = %d, want 1", len(zones))
	}

	// Fly with adaptive sampling.
	p := s.fly(t, rx, route, []geo.GeoCircle{zones[0].Circle}, FlightSpec{Mode: ModeAdaptive})
	if p.Run.PoA.Len() < 1 {
		t.Fatal("empty PoA")
	}

	// Submit: the flight never approached the zone, so compliant.
	resp, err := s.drone.SubmitProof(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %v (%s)", resp.Verdict, resp.Reason)
	}
}

func TestEndToEndOverHTTP(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()

	client := NewHTTPAuditor(hs.URL, hs.Client())
	pub, err := client.FetchEncryptionPub()
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(srv.EncryptionPub().N) != 0 {
		t.Fatal("fetched encryption key mismatch")
	}

	// Zone owner registers over HTTP.
	zresp, err := client.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "alice", Zone: geo.GeoCircle{Center: urbana.Offset(0, 2000), R: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if zresp.ZoneID == "" {
		t.Fatal("empty zone id")
	}

	s := newStack(t, client, srv)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)

	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	zones, err := s.drone.QueryZones(geo.NewRect(urbana.Offset(225, 3000), urbana.Offset(45, 3000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(zones) != 1 {
		t.Fatalf("zones = %d, want 1", len(zones))
	}

	p := s.fly(t, rx, route, nil, FlightSpec{Mode: ModeFixedRate, FixedRateHz: 1})
	resp, err := s.drone.SubmitProof(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %v (%s)", resp.Verdict, resp.Reason)
	}
}

func TestHTTPErrorsSurface(t *testing.T) {
	srv, err := auditor.NewServer(auditor.Config{Random: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(auditor.NewHandler(srv))
	defer hs.Close()
	client := NewHTTPAuditor(hs.URL, hs.Client())

	// Unknown drone: the 404 must map to an error containing the reason.
	_, err = client.SubmitPoA(protocol.SubmitPoARequest{DroneID: "drone-999"})
	if err == nil {
		t.Fatal("expected error for unknown drone over HTTP")
	}
}

func TestUnregisteredDroneOperations(t *testing.T) {
	s := newInProcessStack(t)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)

	if _, err := s.drone.QueryZones(geo.Rect{}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("QueryZones err = %v, want ErrNotRegistered", err)
	}
	ctx := context.Background()
	if _, err := s.drone.Fly(ctx, rx, nil, route.End(), FlightSpec{}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("Fly err = %v, want ErrNotRegistered", err)
	}
	if _, err := s.drone.SubmitProof(ctx, &Proof{Mode: ModeFixedRate, Run: &sampling.RunResult{}}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("SubmitProof err = %v, want ErrNotRegistered", err)
	}
	if _, err := s.drone.Submit(nil); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("Submit err = %v, want ErrNotRegistered", err)
	}
	if _, err := s.drone.RevealForChallengeCtx(ctx, protocol.DisclosureChallenge{}); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("RevealForChallengeCtx err = %v, want ErrNotRegistered", err)
	}
	if err := s.drone.RotateKey(); !errors.Is(err, ErrNotRegistered) {
		t.Errorf("RotateKey err = %v, want ErrNotRegistered", err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	rec := FlightRecord{
		FlightID:     "flight-001",
		DroneID:      "drone-0001",
		Start:        t0,
		End:          t0.Add(time.Minute),
		EncryptedPoA: []byte{1, 2, 3},
	}
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}

	got, err := st.Load("flight-001")
	if err != nil {
		t.Fatal(err)
	}
	if got.DroneID != rec.DroneID || len(got.EncryptedPoA) != 3 {
		t.Errorf("loaded = %+v", got)
	}

	// Mark submitted and save again: the record is overwritten in place.
	rec.Submitted = true
	if err := st.Save(rec); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Load("flight-001"); err != nil || !got.Submitted {
		t.Errorf("reloaded = %+v, %v; want submitted", got, err)
	}

	if _, err := st.Load("missing"); !errors.Is(err, ErrNoSuchFlight) {
		t.Errorf("err = %v, want ErrNoSuchFlight", err)
	}
}

func TestEncryptPoAOnlyAuditorDecrypts(t *testing.T) {
	s := newInProcessStack(t)
	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rx := s.withReceiver(t, route, 5)
	if err := s.drone.Register(); err != nil {
		t.Fatal(err)
	}
	p := s.fly(t, rx, route, nil, FlightSpec{Mode: ModeFixedRate, FixedRateHz: 1})

	ct, err := s.drone.EncryptPoA(p.Run.PoA)
	if err != nil {
		t.Fatal(err)
	}
	// A third party's key cannot decrypt it.
	eve, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(66)), sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sigcrypto.Open(eve, ct); !errors.Is(err, sigcrypto.ErrUndecryptable) {
		t.Errorf("eavesdropper's Open: err = %v, want ErrUndecryptable", err)
	}

	// But the submission round-trips.
	resp, err := s.drone.Submit(ct)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("verdict = %v (%s)", resp.Verdict, resp.Reason)
	}
}
