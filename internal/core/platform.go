// Package core assembles the paper's primary contribution into a single
// deployable unit: the AliDrone drone platform. A Platform is the
// manufactured drone hardware — TrustZone device with its vaulted TEE
// keypair, GPS receiver, secure GPS driver and the GPS Sampler trusted
// application. Everything above (the operator client, the experiments, the
// attack worlds) builds on a Platform instead of wiring the substrates by
// hand.
package core

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/gps"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
)

// PlatformConfig describes one drone platform build.
type PlatformConfig struct {
	// Path is the trajectory the GPS receiver observes.
	Path gps.Path
	// GPSRateHz is the receiver update rate (1-5 Hz; default 5).
	GPSRateHz float64
	// KeyBits sizes the TEE sign key (default 1024, the paper's
	// 5 Hz-capable configuration). Ignored when Suite is set.
	KeyBits int
	// Suite selects the signature suite of the TEE sign key ("rsa1024",
	// "rsa2048", "ed25519", ...). Empty selects the legacy RSA-by-bits
	// provisioning via KeyBits.
	Suite string
	// Seed makes the build deterministic when non-zero; zero uses
	// crypto-grade randomness.
	Seed int64
	// ReceiverOpts inject noise or missed updates into the receiver.
	ReceiverOpts []gps.ReceiverOption
	// SpoofGuard, when set, installs the §VII-A2 plausibility detector
	// in front of the GPS Sampler: implausible fixes are not signed.
	SpoofGuard *SpoofGuardConfig
}

// Platform is one manufactured AliDrone drone.
type Platform struct {
	dev    *tee.Device
	clock  *tee.SimClock
	rx     *gps.Receiver
	random io.Reader
}

// NewPlatform manufactures a platform: vault provisioning, device bring-up
// and trusted-application installation.
func NewPlatform(cfg PlatformConfig) (*Platform, error) {
	if cfg.Path == nil {
		return nil, fmt.Errorf("core: platform needs a path")
	}
	if cfg.GPSRateHz == 0 {
		cfg.GPSRateHz = gps.MaxUpdateRateHz
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = sigcrypto.KeySize1024
	}
	var random io.Reader
	if cfg.Seed != 0 {
		random = rand.New(rand.NewSource(cfg.Seed))
	}

	rx, err := gps.NewReceiver(cfg.Path, cfg.GPSRateHz, cfg.ReceiverOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: receiver: %w", err)
	}
	var vault *tee.KeyVault
	if cfg.Suite != "" {
		vault, err = tee.ManufactureSuiteVault(random, cfg.Suite)
	} else {
		vault, err = tee.ManufactureVault(random, cfg.KeyBits)
	}
	if err != nil {
		return nil, fmt.Errorf("core: vault: %w", err)
	}
	clock := tee.NewSimClock(cfg.Path.Start())
	dev := tee.NewDevice(clock, vault)

	var source tee.GPSSource = gps.NewDriver(rx)
	if cfg.SpoofGuard != nil {
		source = NewSpoofGuard(source, *cfg.SpoofGuard)
	}
	if _, err := tee.NewGPSSampler(dev, source, random); err != nil {
		return nil, fmt.Errorf("core: sampler ta: %w", err)
	}
	return &Platform{dev: dev, clock: clock, rx: rx, random: random}, nil
}

// Device returns the TrustZone device (counters, vault public key, TA
// invocation).
func (p *Platform) Device() *tee.Device { return p.dev }

// Clock returns the platform's simulation clock.
func (p *Platform) Clock() *tee.SimClock { return p.clock }

// Receiver returns the GPS receiver.
func (p *Platform) Receiver() *gps.Receiver { return p.rx }
