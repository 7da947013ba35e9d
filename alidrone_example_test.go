package alidrone_test

import (
	"context"
	"fmt"
	"log"
	"time"

	alidrone "repro"
	"repro/internal/operator"
	"repro/internal/sigcrypto"
)

// Example demonstrates the minimal AliDrone round trip through the public
// API: an auditor, one no-fly zone, one drone flying past it with adaptive
// sampling, and a verified Proof-of-Alibi.
func Example() {
	start := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	home := alidrone.LatLon{Lat: 40.1106, Lon: -88.2073}

	// The Auditor and a registered no-fly zone.
	srv, err := alidrone.NewAuditor(alidrone.AuditorConfig{})
	if err != nil {
		log.Fatal(err)
	}
	zoneID, err := srv.Zones().Register("alice", alidrone.GeoCircle{
		Center: home.Offset(0, 150), R: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("zone:", zoneID)

	// The drone platform over a 60-second flight line.
	route, err := alidrone.NewRouteLine(home, 90, 10, start, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	platform, err := alidrone.NewPlatform(alidrone.PlatformConfig{Path: route, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Register, fly, submit.
	drone, err := operator.NewDrone(srv, srv.EncryptionPub(),
		platform.Device(), platform.Clock(), sigcrypto.KeySize1024, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := drone.Register(); err != nil {
		log.Fatal(err)
	}
	proof, err := drone.Fly(context.Background(), platform.Receiver(), []alidrone.GeoCircle{{Center: home.Offset(0, 150), R: 6}}, route.End(),
		operator.FlightSpec{Mode: operator.ModeAdaptive})
	if err != nil {
		log.Fatal(err)
	}
	verdict, err := drone.SubmitProof(context.Background(), proof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verdict:", verdict.Verdict)

	// Output:
	// zone: zone-0001
	// verdict: compliant
}

// ExampleVerifySufficiency shows the bare geometric core: two samples one
// second apart cannot reach a zone five kilometres away, so the pair
// proves alibi.
func ExampleVerifySufficiency() {
	start := time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)
	home := alidrone.LatLon{Lat: 40.1106, Lon: -88.2073}

	samples := []alidrone.Sample{
		{Pos: home, Time: start},
		{Pos: home.Offset(90, 10), Time: start.Add(time.Second)},
	}
	zones := []alidrone.GeoCircle{{Center: home.Offset(0, 5000), R: 100}}

	rep, err := alidrone.VerifySufficiency(samples, zones, alidrone.MaxDroneSpeedMPS, alidrone.Exact)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sufficient:", rep.Sufficient())

	// Output:
	// sufficient: true
}
