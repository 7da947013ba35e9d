// Planned delivery: the full commercial workflow the paper's introduction
// motivates (Amazon-style package delivery). The drone queries the Auditor
// for no-fly zones along its delivery corridor, *plans a route around
// them* (the "compute a viable route" step of §IV-B), flies the planned
// route with adaptive sampling, and submits a Proof-of-Alibi that the
// Auditor accepts — while the naive straight-line route would have been a
// violation.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/auditor"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/planner"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/zone"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	start := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	warehouse := geo.LatLon{Lat: 40.1106, Lon: -88.2073}
	customer := warehouse.Offset(90, 4000)

	srv, err := auditor.NewServer(auditor.Config{})
	if err != nil {
		return err
	}
	// Three no-fly zones sit across the direct corridor.
	for i, offset := range []float64{1200, 2000, 2800} {
		z := geo.GeoCircle{
			Center: warehouse.Offset(90, offset).Offset(float64(i-1)*8, 60),
			R:      150,
		}
		if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{Owner: fmt.Sprintf("owner-%d", i), Zone: z}); err != nil {
			return err
		}
	}

	// The operator asks for zones over the corridor (we reuse the
	// protocol path later; here we plan first, then build the platform
	// over the planned route).
	zones := zone.Circles(srv.Zones().QueryRect(
		geo.NewRect(warehouse.Offset(225, 2000), customer.Offset(45, 2000))))
	fmt.Printf("corridor holds %d no-fly zones\n", len(zones))

	// Route planning: the straight line is blocked; A* finds a detour.
	waypoints, err := planner.PlanRoute(warehouse, customer, zones, planner.Config{ClearanceMeters: 60})
	if err != nil {
		return err
	}
	straight := geo.HaversineMeters(warehouse, customer)
	fmt.Printf("planned route: %d waypoints, %.0f m (straight line: %.0f m, +%.1f%%)\n",
		len(waypoints), planner.PathLengthMeters(waypoints), straight,
		100*(planner.PathLengthMeters(waypoints)/straight-1))

	route, err := planner.ToRoute(waypoints, 15, start)
	if err != nil {
		return err
	}

	// Manufacture the platform over the planned route and fly it.
	platform, err := core.NewPlatform(core.PlatformConfig{Path: route})
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
	proof, err := drone.Fly(context.Background(), platform.Receiver(), zones, route.End(), operator.FlightSpec{Mode: operator.ModeAdaptive})
	if err != nil {
		return err
	}
	fmt.Printf("delivery flight: %v, %d signed samples (mean %.2f Hz)\n",
		route.Duration().Round(time.Second), proof.Run.PoA.Len(), proof.Run.Stats.MeanRateHz())

	verdict, err := drone.SubmitProof(context.Background(), proof)
	if err != nil {
		return err
	}
	fmt.Printf("auditor verdict: %s\n", verdict.Verdict)
	if verdict.Verdict != protocol.VerdictCompliant {
		return fmt.Errorf("planned route should be compliant: %s", verdict.Reason)
	}
	return nil
}
