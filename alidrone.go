// Package alidrone is the public API of the AliDrone reproduction: a
// trustworthy Proof-of-Alibi (PoA) system that lets commercial drones
// prove compliance with no-fly zones to a third-party auditor
// (Liu, Hojjati, Bates, Nahrstedt — ICDCS 2018).
//
// The package re-exports the stable surface of the implementation
// packages so downstream users need a single import:
//
//   - geo:       coordinates, no-fly-zone circles, travel-range ellipses
//   - poa:       samples, Proofs-of-Alibi, sufficiency verification
//   - sampling:  the adaptive sampling algorithm and the fix-rate baseline
//   - tee:       the software trusted-execution-environment substrate
//   - gps:       the simulated NMEA GPS receiver and secure driver
//   - auditor:   the AliDrone Server (registries + verification + HTTP)
//   - operator:  the drone-side client (Adapter)
//   - privacy:   the one-time-key selective-disclosure extension
//
// See examples/quickstart for the complete five-minute tour.
package alidrone

import (
	"time"

	"repro/internal/auditor"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/operator"
	"repro/internal/planner"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

// Geometry and zones.
type (
	// LatLon is a WGS-84 coordinate in decimal degrees.
	LatLon = geo.LatLon
	// GeoCircle is a circular no-fly zone (centre + radius in metres).
	GeoCircle = geo.GeoCircle
	// Rect is a navigation-area rectangle for zone queries.
	Rect = geo.Rect
	// NFZ is a registered no-fly zone with its issued identifier.
	NFZ = zone.NFZ
	// ZoneIndex answers nearest-zone queries during flight.
	ZoneIndex = zone.Index
)

// Proof-of-Alibi core.
type (
	// Sample is one GPS observation (lat, lon, alt, t).
	Sample = poa.Sample
	// SignedSample is a sample plus its TEE signature.
	SignedSample = poa.SignedSample
	// PoA is the Proof-of-Alibi: the signed sample series.
	PoA = poa.PoA
	// SufficiencyReport is the outcome of verifying a PoA against zones.
	SufficiencyReport = poa.Report
)

// Platform substrate.
type (
	// Device is a TrustZone-capable drone SoC with its secure world.
	Device = tee.Device
	// KeyVault holds the manufacturer-provisioned TEE keypair.
	KeyVault = tee.KeyVault
	// SimClock drives deterministic simulations.
	SimClock = tee.SimClock
	// Receiver is the simulated 1-5 Hz NMEA GPS receiver.
	Receiver = gps.Receiver
	// Driver is the secure-world GPS driver.
	Driver = gps.Driver
	// Route is a piecewise-linear flight/drive trajectory.
	Route = trace.Route
)

// Protocol roles.
type (
	// AuditorServer is the AliDrone Server run by the authorized third
	// party.
	AuditorServer = auditor.Server
	// AuditorConfig parameterises the server.
	AuditorConfig = auditor.Config
	// Drone is the drone-side client (the Adapter plus protocol state).
	Drone = operator.Drone
	// Verdict is the auditor's conclusion about a submitted PoA.
	Verdict = protocol.Verdict
)

// Samplers.
type (
	// AdaptiveSampler implements the paper's Algorithm 1.
	AdaptiveSampler = sampling.Adaptive
	// FixedRateSampler is the fix-rate baseline.
	FixedRateSampler = sampling.FixedRate
	// SamplingEnv wires a sampler to receiver, clock and TEE.
	SamplingEnv = sampling.Env
)

// Privacy extension.
type (
	// SealedPoA is the one-time-key encrypted Proof-of-Alibi.
	SealedPoA = privacy.SealedPoA
	// KeyRing holds the operator's one-time keys for disclosure.
	KeyRing = privacy.KeyRing
)

// Verdicts.
const (
	// VerdictCompliant means the PoA proves NFZ compliance.
	VerdictCompliant = protocol.VerdictCompliant
	// VerdictViolation means a violation was detected (or the PoA failed
	// authentication).
	VerdictViolation = protocol.VerdictViolation
)

// Sufficiency test modes.
const (
	// Conservative is the paper's cheap boundary-distance test.
	Conservative = poa.Conservative
	// Exact decides true geometric ellipse-zone disjointness.
	Exact = poa.Exact
)

// Platform assembly and planning.
type (
	// Platform is the assembled drone: TEE device + receiver + sampler TA.
	Platform = core.Platform
	// PlatformConfig describes one platform build.
	PlatformConfig = core.PlatformConfig
	// SpoofGuardConfig tunes the §VII-A2 GPS plausibility detector.
	SpoofGuardConfig = core.SpoofGuardConfig
	// PlannerConfig tunes the NFZ-avoiding route planner.
	PlannerConfig = planner.Config
	// BatchPoA is the sign-once trace envelope (§VII-A1b).
	BatchPoA = poa.BatchPoA
)

// MaxDroneSpeedMPS is the FAA 100 mph speed bound in metres per second.
var MaxDroneSpeedMPS = geo.MaxDroneSpeedMPS

// NewPlatform manufactures a drone platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return core.NewPlatform(cfg) }

// NewRouteLine builds a straight constant-speed route: the simplest flight
// path for demos and tests.
func NewRouteLine(start LatLon, bearingDeg, speedMS float64, departure time.Time, dur time.Duration) (*Route, error) {
	return trace.ConstantSpeedLine(start, bearingDeg, speedMS, departure, dur)
}

// PlanRoute computes a no-fly-zone-avoiding waypoint route.
func PlanRoute(start, goal LatLon, zones []GeoCircle, cfg PlannerConfig) ([]LatLon, error) {
	return planner.PlanRoute(start, goal, zones, cfg)
}

// NewAuditor creates an AliDrone Server.
func NewAuditor(cfg AuditorConfig) (*AuditorServer, error) { return auditor.NewServer(cfg) }

// NewZoneIndex builds a nearest-zone index over a flight's NFZ set.
func NewZoneIndex(zones []GeoCircle) *ZoneIndex { return zone.NewIndex(zones, 0) }

// VerifySufficiency checks the paper's eq. 1 over a bare sample trace.
func VerifySufficiency(samples []Sample, zones []GeoCircle, vmaxMS float64, mode poa.TestMode) (SufficiencyReport, error) {
	return poa.VerifySufficiency(samples, zones, vmaxMS, mode)
}
