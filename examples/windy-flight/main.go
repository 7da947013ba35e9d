// Windy flight: the fully closed loop. A delivery mission is planned
// around a no-fly zone, flown by the simulated airframe through gusty
// wind (so the track has real tracking error, unlike an ideal polyline),
// sampled adaptively through the TEE, and audited — first offline, then
// with the real-time streaming mode.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/auditor"
	"repro/internal/core"
	"repro/internal/flightsim"
	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	depot := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	customer := depot.Offset(90, 2500)
	nfz := geo.GeoCircle{Center: depot.Offset(90, 1200), R: 250}

	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		return err
	}
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{Owner: "hospital", Zone: nfz}); err != nil {
		return err
	}

	// Plan around the zone with generous clearance for wind drift.
	waypoints, err := planner.PlanRoute(depot, customer, []geo.GeoCircle{nfz},
		planner.Config{ClearanceMeters: 120})
	if err != nil {
		return err
	}
	fmt.Printf("planned %d waypoints, %.0f m\n", len(waypoints), planner.PathLengthMeters(waypoints))

	// Fly the plan through a 5 m/s wind with 2 m/s gusts.
	flown, err := flightsim.Fly(flightsim.Mission{
		Waypoints: waypoints,
		Departure: start,
		Wind:      flightsim.WindModel{MeanMS: 5, BearingDeg: 330, GustMS: 2, Seed: 9},
	})
	if err != nil {
		return err
	}
	fmt.Printf("flown in %v through gusty wind (%d track points)\n",
		flown.Duration().Round(time.Second), len(flown.Waypoints()))

	// The platform samples the flown (imperfect) trajectory.
	platform, err := core.NewPlatform(core.PlatformConfig{Path: flown})
	if err != nil {
		return err
	}
	drone, err := operator.NewDrone(srv, srv.EncryptionPub(), platform.Device(), platform.Clock(),
		sigcrypto.KeySize1024, nil)
	if err != nil {
		return err
	}
	if err := drone.Register(); err != nil {
		return err
	}

	// Real-time streaming audit: the auditor checks each sample in
	// flight.
	rep, err := drone.RunMission(platform.Receiver(), flown, operator.MissionConfig{FlightSpec: operator.FlightSpec{Mode: operator.ModeStreaming}})
	if err != nil {
		return err
	}
	fmt.Printf("streamed %d samples; in-flight violation: %v\n",
		rep.Run.PoA.Len(), rep.StreamedViolationAt >= 0)
	fmt.Printf("final verdict: %s\n", rep.Verdict.Verdict)
	if rep.Verdict.Verdict != protocol.VerdictCompliant {
		return fmt.Errorf("windy delivery should still be compliant: %s", rep.Verdict.Reason)
	}
	return nil
}
