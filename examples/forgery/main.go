// Forgery: a dishonest Drone Operator flies through a no-fly zone and
// then tries every GPS forgery attack from the paper's threat model to
// hide it — fabricating a route, tampering with signed samples, dropping
// the incriminating window, splicing traces, and replaying an old PoA.
// The auditor catches each one (design goal G3: unforgeability); run
// fails if any attack goes undetected.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	z := geo.GeoCircle{Center: home.Offset(0, 120), R: 30}

	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		return err
	}
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{Owner: "alice", Zone: z}); err != nil {
		return err
	}

	// Build the honest platform and record a legitimate flight past the
	// zone; the attacker will mutate this PoA.
	route, err := trace.ConstantSpeedLine(home, 90, 10, start, 2*time.Minute)
	if err != nil {
		return err
	}
	p, err := tee.NewPlatform(route, 5, sigcrypto.SuiteRSA1024, nil)
	if err != nil {
		return err
	}
	drone, err := operator.NewDrone(srv, srv.EncryptionPub(), p.Device, p.Clock, sigcrypto.KeySize1024, nil)
	if err != nil {
		return err
	}
	if err := drone.Register(); err != nil {
		return err
	}
	flight, err := drone.Fly(context.Background(), p.Receiver, []geo.GeoCircle{z}, route.End(), operator.FlightSpec{Mode: operator.ModeAdaptive})
	if err != nil {
		return err
	}
	honest := flight.Run

	eval := attack.Evaluate{API: srv, DroneID: drone.ID(), EncryptPoA: drone.EncryptPoA}
	var missed []string
	report := func(r attack.Result) {
		status := "DETECTED"
		if !r.Detected {
			status = "MISSED  "
			missed = append(missed, r.Name)
		}
		fmt.Printf("  %-14s %s  %s\n", r.Name, status, r.Reason)
	}

	fmt.Println("attack suite against the auditor:")

	// 0. Baseline: the honest PoA is accepted.
	r, err := eval.Run("honest", honest.PoA)
	if err != nil {
		return err
	}
	fmt.Printf("  %-14s verdict=%s\n", "honest", r.Verdict)

	// 1. Forged route signed with the attacker's own key.
	attackerKey, err := sigcrypto.GenerateKeyPair(nil, sigcrypto.KeySize1024)
	if err != nil {
		return err
	}
	forged, err := attack.ForgeRoute(attackerKey, home.Offset(180, 3000), 90, 10, 60, start)
	if err != nil {
		return err
	}
	if r, err = eval.Run("forge-route", forged); err != nil {
		return err
	}
	report(r)

	// 2. Tamper with the signed samples that passed near the zone.
	tampered, err := attack.Tamper(honest.PoA, z, 200, 500)
	if err != nil {
		return err
	}
	if r, err = eval.Run("tamper", tampered); err != nil {
		return err
	}
	report(r)

	// 3. Drop the incriminating middle of the flight.
	truncated, err := attack.Truncate(honest.PoA, start.Add(2*time.Second), start.Add(110*time.Second))
	if err != nil {
		return err
	}
	if r, err = eval.Run("truncate", truncated); err != nil {
		return err
	}
	report(r)

	// 4. Splice two signed fragments with overlapping timestamps.
	half := honest.PoA.Len() / 2
	spliced, err := attack.Splice(
		poa.PoA{Samples: honest.PoA.Samples[:half]},
		poa.PoA{Samples: honest.PoA.Samples[half-1:]},
	)
	if err != nil {
		return err
	}
	if r, err = eval.Run("splice", spliced); err != nil {
		return err
	}
	report(r)

	// 5. Replay the already-reported honest PoA for a "second flight".
	if r, err = eval.Run("replay", attack.Replay(honest.PoA)); err != nil {
		return err
	}
	report(r)

	if len(missed) > 0 {
		return fmt.Errorf("attacks the auditor missed: %s", strings.Join(missed, ", "))
	}
	return nil
}
