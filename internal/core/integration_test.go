package core

import (
	"testing"
	"time"

	"repro/internal/flightsim"
	"repro/internal/geo"
	"repro/internal/planner"
	"repro/internal/poa"
)

// TestClosedLoopPlannedFlight exercises the full realistic pipeline: plan
// a route around a no-fly zone, fly it with the simulated airframe in
// gusty wind, sample the flown (imperfect) trajectory adaptively through
// the TEE, and verify the resulting Proof-of-Alibi.
func TestClosedLoopPlannedFlight(t *testing.T) {
	goal := urbana.Offset(90, 2500)
	z := geo.GeoCircle{Center: urbana.Offset(90, 1200), R: 250}

	// Plan with enough clearance that wind-blown tracking error plus the
	// adaptive sampler's worst case stay provable.
	waypoints, err := planner.PlanRoute(urbana, goal, []geo.GeoCircle{z}, planner.Config{ClearanceMeters: 120})
	if err != nil {
		t.Fatal(err)
	}

	flown, err := flightsim.Fly(flightsim.Mission{
		Waypoints: waypoints,
		Departure: t0,
		Wind:      flightsim.WindModel{MeanMS: 5, BearingDeg: 330, GustMS: 2, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The flown track must itself stay out of the zone (clearance held).
	for dt := time.Duration(0); dt <= flown.Duration(); dt += time.Second {
		if z.ContainsLatLon(flown.Position(t0.Add(dt)).Pos) {
			t.Fatalf("flown track entered the zone at %v", dt)
		}
	}

	p, err := NewPlatform(PlatformConfig{Path: flown, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := flyAdaptive(t, p, []geo.GeoCircle{z}, flown.End())

	rep, err := poa.VerifySufficiency(res.PoA.Alibi(), []geo.GeoCircle{z}, geo.MaxDroneSpeedMPS, poa.Exact)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sufficient() {
		t.Errorf("PoA from the simulated flight insufficient: %+v", rep.Insufficiencies)
	}

	// The adaptive sampler should have spent far fewer samples than 5 Hz
	// over the whole flight.
	fullRate := int(flown.Duration().Seconds() * 5)
	if res.PoA.Len() > fullRate/2 {
		t.Errorf("adaptive used %d of %d possible samples", res.PoA.Len(), fullRate)
	}
}
