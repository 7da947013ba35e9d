package tee

import (
	"fmt"
	"io"

	"repro/internal/gps"
)

// Platform is one manufactured AliDrone drone: the TrustZone device with
// its vaulted key and the GPS Sampler TA installed, the secure-world
// clock, and the GPS receiver the TA reads through the secure driver.
type Platform struct {
	Device   *Device
	Clock    *SimClock
	Receiver *gps.Receiver
}

// NewPlatform manufactures a drone over path: a receiver updating at
// rateHz, a vault keyed under the named signature suite, a clock starting
// at the path's start, and the GPS Sampler TA. random seeds both the vault
// and the TA (nil selects crypto/rand), so a seeded source makes the whole
// build reproducible.
func NewPlatform(path gps.Path, rateHz float64, suite string, random io.Reader, opts ...gps.ReceiverOption) (*Platform, error) {
	rx, err := gps.NewReceiver(path, rateHz, opts...)
	if err != nil {
		return nil, fmt.Errorf("platform: receiver: %w", err)
	}
	vault, err := ManufactureSuiteVault(random, suite)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	clock := NewSimClock(path.Start())
	dev := NewDevice(clock, vault)
	if _, err := NewGPSSampler(dev, gps.NewDriver(rx), random); err != nil {
		return nil, fmt.Errorf("platform: sampler ta: %w", err)
	}
	return &Platform{Device: dev, Clock: clock, Receiver: rx}, nil
}
