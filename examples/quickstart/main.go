// Quickstart: the minimal AliDrone round trip — one auditor, one no-fly
// zone, one drone. The drone registers, asks for zones, flies past the
// zone with adaptive sampling, and submits a Proof-of-Alibi the auditor
// accepts.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	home := geo.LatLon{Lat: 40.1106, Lon: -88.2073}

	// 1. The Auditor (e.g. a local FAA agent) starts its server.
	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		return err
	}

	// 2. A Zone Owner registers a no-fly zone over her property.
	zoneResp, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner:          "alice",
		Zone:           geo.GeoCircle{Center: home.Offset(0, 150), R: geo.FeetToMeters(20)},
		OwnershipProof: "parcel 1234-5678",
	})
	if err != nil {
		return err
	}
	fmt.Println("zone registered:", zoneResp.ZoneID)

	// The flight plan: a 90-second run straight down the street at 10 m/s.
	route, err := trace.ConstantSpeedLine(home, 90, 10, start, 90*time.Second)
	if err != nil {
		return err
	}

	// 3. The drone is manufactured: the TEE keypair is generated inside
	//    the secure hardware; the operator never sees the private half.
	p, err := tee.NewPlatform(route, 5, sigcrypto.SuiteRSA1024, nil)
	if err != nil {
		return err
	}

	// 4. The Drone Operator registers the drone and queries for zones.
	drone, err := operator.NewDrone(srv, srv.EncryptionPub(), p.Device, p.Clock, sigcrypto.KeySize1024, nil)
	if err != nil {
		return err
	}
	if err := drone.Register(); err != nil {
		return err
	}
	fmt.Println("drone registered:", drone.ID())

	area := geo.NewRect(home.Offset(225, 2000), home.Offset(45, 2000))
	zones, err := drone.QueryZones(area)
	if err != nil {
		return err
	}
	fmt.Printf("zones in flight area: %d\n", len(zones))

	// 5. Fly with adaptive sampling: the secure world signs each sample.
	proof, err := drone.Fly(context.Background(), p.Receiver, zone.Circles(zones), route.End(), operator.FlightSpec{Mode: operator.ModeAdaptive})
	if err != nil {
		return err
	}
	fmt.Printf("flight done: %d signed samples (mean %.2f Hz)\n",
		proof.Run.PoA.Len(), proof.Run.Stats.MeanRateHz())

	// 6. Submit the encrypted Proof-of-Alibi.
	verdict, err := drone.SubmitProof(context.Background(), proof)
	if err != nil {
		return err
	}
	fmt.Println("auditor verdict:", verdict.Verdict)
	return nil
}
