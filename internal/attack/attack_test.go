package attack

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
)

var (
	t0     = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	urbana = geo.LatLon{Lat: 40.1106, Lon: -88.2073}
)

// world is a full honest stack the attacker subverts: auditor, registered
// drone, a zone near the flight path, and an honest PoA from a clean
// flight.
type world struct {
	srv     *auditor.Server
	drone   *operator.Drone
	zone    geo.GeoCircle
	zoneID  string
	honest  poa.PoA
	evalCtx Evaluate
}

func newWorld(t *testing.T) *world {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	srv, err := auditor.NewServer(auditor.Config{Random: rng})
	if err != nil {
		t.Fatal(err)
	}

	z := geo.GeoCircle{Center: urbana.Offset(0, 120), R: 30}
	zoneID, err := srv.Zones().Register("alice", z)
	if err != nil {
		t.Fatal(err)
	}

	route, err := trace.ConstantSpeedLine(urbana, 90, 10, t0, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tee.NewPlatform(route, 5, sigcrypto.SuiteRSA1024, rng)
	if err != nil {
		t.Fatal(err)
	}

	d, err := operator.NewDrone(srv, srv.EncryptionPub(), p.Device, p.Clock, sigcrypto.KeySize1024, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Register(); err != nil {
		t.Fatal(err)
	}

	flight, err := d.Fly(context.Background(), p.Receiver, []geo.GeoCircle{z}, route.End(), operator.FlightSpec{Mode: operator.ModeAdaptive})
	if err != nil {
		t.Fatal(err)
	}

	return &world{
		srv: srv, drone: d, zone: z, zoneID: zoneID, honest: flight.Run.PoA,
		evalCtx: Evaluate{API: srv, DroneID: d.ID(), EncryptPoA: d.EncryptPoA},
	}
}

func TestHonestBaselineAccepted(t *testing.T) {
	w := newWorld(t)
	r, err := w.evalCtx.Run("honest", w.honest)
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected {
		t.Fatalf("honest PoA flagged: %s", r.Reason)
	}
}

func TestForgeRouteDetected(t *testing.T) {
	w := newWorld(t)
	attackerKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(5)), sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := ForgeRoute(attackerKey, urbana.Offset(180, 3000), 90, 10, 60, t0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.evalCtx.Run("forge-route", forged)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Detected {
		t.Error("forged route not detected")
	}
}

func TestTamperDetected(t *testing.T) {
	w := newWorld(t)
	tampered, err := Tamper(w.honest, w.zone, 200, 500)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.evalCtx.Run("tamper", tampered)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Detected {
		t.Error("tampered PoA not detected")
	}
}

func TestTamperActuallyMovedSamples(t *testing.T) {
	w := newWorld(t)
	tampered, err := Tamper(w.honest, w.zone, 200, 500)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range tampered.Samples {
		if tampered.Samples[i].Sample.Pos != w.honest.Samples[i].Sample.Pos {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("tamper attack moved no samples; test world geometry wrong")
	}
}

func TestTruncateDetected(t *testing.T) {
	w := newWorld(t)
	// Remove the middle of the flight, exactly when the drone passed the
	// zone (closest approach at ~t0+60 s given the 600 m abeam point).
	truncated, err := Truncate(w.honest, t0.Add(2*time.Second), t0.Add(110*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if truncated.Len() >= w.honest.Len() {
		t.Fatal("truncation removed nothing")
	}
	r, err := w.evalCtx.Run("truncate", truncated)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Detected {
		t.Error("truncated PoA not detected (gap spans the zone approach)")
	}
}

func TestReplayDetected(t *testing.T) {
	w := newWorld(t)
	// First submission is honest and accepted.
	r1, err := w.evalCtx.Run("first", w.honest)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Detected {
		t.Fatalf("honest submission rejected: %s", r1.Reason)
	}
	// Re-submitting the same trace for a "new flight" is caught.
	r2, err := w.evalCtx.Run("replay", Replay(w.honest))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Detected {
		t.Error("replayed PoA not detected")
	}
}

func TestSpliceDetected(t *testing.T) {
	w := newWorld(t)

	// The attacker stitches two honestly signed fragments into one
	// claimed flight. Overlapping the seam duplicates a timestamp, which
	// the chronology check catches; a disjoint seam would instead leave
	// an uncovered gap caught by sufficiency (TestTruncateDetected).
	half := w.honest.Len() / 2
	a := poa.PoA{Samples: w.honest.Samples[:half]}
	b := poa.PoA{Samples: w.honest.Samples[half-1:]} // overlap → duplicate timestamp
	spliced, err := Splice(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.evalCtx.Run("splice", spliced)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Detected {
		t.Error("spliced PoA with duplicated timestamps not detected")
	}
}

func TestAccusationAgainstTruncatedTrace(t *testing.T) {
	w := newWorld(t)
	truncated, err := Truncate(w.honest, t0.Add(30*time.Second), t0.Add(90*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.evalCtx.Run("truncate", truncated)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Detected {
		// If the submission was rejected outright, the attack already
		// failed; nothing more to check.
		return
	}
	// Had it slipped through, the accusation at the incident time would
	// still fail to produce an exonerating pair.
	if _, err := w.srv.HandleAccusation(w.drone.ID(), w.zoneID, t0.Add(60*time.Second)); err == nil {
		t.Log("accusation answered (pair existed); acceptable only if pair proves alibi")
	}
}

func TestAttackConstructorsValidate(t *testing.T) {
	if _, err := Tamper(poa.PoA{}, geo.GeoCircle{}, 1, 1); !errors.Is(err, ErrNeedSamples) {
		t.Errorf("Tamper err = %v", err)
	}
	if _, err := Truncate(poa.PoA{}, t0, t0); !errors.Is(err, ErrNeedSamples) {
		t.Errorf("Truncate err = %v", err)
	}
	if _, err := Splice(poa.PoA{}, poa.PoA{}); !errors.Is(err, ErrNeedSamples) {
		t.Errorf("Splice err = %v", err)
	}
}

// TestUnforgeabilitySweep: no attack in the suite yields a compliant
// verdict — the paper's goal G3 as a single property.
func TestUnforgeabilitySweep(t *testing.T) {
	w := newWorld(t)
	attackerKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(6)), sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}

	forged, err := ForgeRoute(attackerKey, urbana.Offset(180, 3000), 90, 10, 30, t0)
	if err != nil {
		t.Fatal(err)
	}
	tampered, err := Tamper(w.honest, w.zone, 200, 500)
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := Truncate(w.honest, t0.Add(2*time.Second), t0.Add(110*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	attacks := map[string]poa.PoA{
		"forge-route": forged,
		"tamper":      tampered,
		"truncate":    truncated,
	}
	for name, p := range attacks {
		r, err := w.evalCtx.Run(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Verdict == protocol.VerdictCompliant {
			t.Errorf("attack %q produced a compliant verdict", name)
		}
	}
}
