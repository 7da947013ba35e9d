// Privacy: the §VII-B3 extension against an honest-but-curious auditor.
// The drone uploads its Proof-of-Alibi with every position encrypted
// under a one-time key. When a Zone Owner accuses the drone, the operator
// reveals only the two keys spanning the incident — the auditor resolves
// the accusation while learning just that fragment of the trajectory.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/geo"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/sampling"
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
	z := geo.GeoCircle{Center: home.Offset(0, 250), R: geo.FeetToMeters(20)}

	// Fly a clean route with the full TEE stack.
	route, err := trace.ConstantSpeedLine(home, 90, 10, start, 90*time.Second)
	if err != nil {
		return err
	}
	p, err := tee.NewPlatform(route, 5, sigcrypto.SuiteRSA1024, nil)
	if err != nil {
		return err
	}

	a := &sampling.Adaptive{
		Env:    sampling.NewTEEEnv(p.Device, p.Clock, p.Receiver),
		Index:  zone.NewIndex([]geo.GeoCircle{z}, 0),
		VMaxMS: geo.MaxDroneSpeedMPS,
	}
	res, err := a.Run(route.End())
	if err != nil {
		return err
	}
	fmt.Printf("flight: %d signed samples\n", res.PoA.Len())

	// The operator seals the PoA: one fresh key per sample.
	sealed, ring, err := privacy.Seal(res.PoA, nil)
	if err != nil {
		return err
	}
	fmt.Printf("sealed PoA uploaded: %d encrypted entries, %d keys retained by the operator\n",
		len(sealed.Entries), ring.Len())

	// A Zone Owner spots the drone near her property at t+40 s and
	// reports (zone id, drone id, time) to the auditor.
	incident := start.Add(40 * time.Second)
	i, err := privacy.FindPair(sealed, incident)
	if err != nil {
		return err
	}
	fmt.Printf("accusation at t+40s: auditor requests keys for entries %d and %d (of %d)\n",
		i, i+1, len(sealed.Entries))

	// The operator reveals exactly two keys.
	k1, err := ring.Reveal(i)
	if err != nil {
		return err
	}
	k2, err := ring.Reveal(i + 1)
	if err != nil {
		return err
	}

	// The auditor opens only those entries, verifies the TEE signatures,
	// and decides the boolean compliance question.
	exonerated, err := privacy.JudgeAccusation(
		sealed.Entries[i], sealed.Entries[i+1], k1, k2,
		p.Device.Vault().SuiteKey(), z, geo.MaxDroneSpeedMPS, poa.Exact)
	if err != nil {
		return err
	}
	if exonerated {
		fmt.Println("verdict: alibi proven — the drone could not have been in the zone")
	} else {
		fmt.Println("verdict: alibi NOT proven — violation proceedings begin")
	}
	fmt.Printf("trajectory disclosed to the auditor: %d of %d samples\n", 2, len(sealed.Entries))
	return nil
}
