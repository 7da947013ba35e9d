// Airport field study (paper §VI-A2) through the public API: a vehicle
// starts 30 ft outside the FAA 5-mile airport no-fly boundary and drives
// away for 12 minutes. Compares 1 Hz fix-rate sampling against adaptive
// sampling — the paper's Fig 6 headline (649 vs 14 samples).
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
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	sc, err := trace.NewAirportScenario(trace.DefaultAirportConfig(start))
	if err != nil {
		return err
	}
	airportZone := sc.Zones[0]
	fmt.Printf("airport NFZ: centre %v, radius %.1f mi\n",
		airportZone.Center, geo.MetersToMiles(airportZone.R))

	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		return err
	}
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "faa", Zone: airportZone, OwnershipProof: "14 CFR 107",
	}); err != nil {
		return err
	}

	for _, run := range []struct {
		label string
		spec  operator.FlightSpec
	}{
		{"fixed-1hz", operator.FlightSpec{Mode: operator.ModeFixedRate, FixedRateHz: 1}},
		{"adaptive", operator.FlightSpec{Mode: operator.ModeAdaptive}},
	} {
		// The paper runs this scenario at 1 Hz.
		p, err := tee.NewPlatform(sc.Route, 1, sigcrypto.SuiteRSA1024, nil)
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

		proof, err := drone.Fly(context.Background(), p.Receiver, []geo.GeoCircle{airportZone}, sc.Route.End(), run.spec)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %4d GPS samples over %v\n", run.label, proof.Run.PoA.Len(), sc.Route.Duration())
	}

	// Show the distance profile the figure plots.
	fmt.Println("\ndistance to the NFZ boundary during the drive:")
	for dt := time.Duration(0); dt <= sc.Route.Duration(); dt += 2 * time.Minute {
		d := airportZone.BoundaryDistMeters(sc.Route.Position(start.Add(dt)).Pos)
		fmt.Printf("  t=%-4v %8.0f ft\n", dt, geo.MetersToFeet(d))
	}
	return nil
}
