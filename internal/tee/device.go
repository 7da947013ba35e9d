// Package tee is the trusted-execution-environment substrate: a software
// model of the ARM TrustZone / OP-TEE stack the paper's prototype runs on.
//
// The model preserves the two properties the AliDrone protocol actually
// depends on:
//
//  1. Key isolation — the TEE sign key T- is provisioned into an
//     unexported vault at "manufacture" and is reachable only from code
//     running inside a Trusted Application. The normal world (the Adapter,
//     the Drone Operator, attack code) can only call TA commands through
//     the Device's SMC dispatch and can never read the key.
//  2. World-switch cost — every TA invocation is a Secure Monitor Call
//     with entry and exit transitions. The device counts SMCs, signatures
//     and signed bytes; the perf package converts those counters into the
//     simulated-Raspberry-Pi CPU utilisation of Table II.
//
// Trusted Applications are addressed by UUID and invoked with
// GlobalPlatform-style (command ID, opaque payload) calls, mirroring the
// OP-TEE client API the paper's Adapter uses.
package tee

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

var (
	// ErrNoSuchTA is returned when invoking an unregistered UUID.
	ErrNoSuchTA = errors.New("tee: no trusted application with that UUID")
	// ErrTAExists is returned when installing two TAs under one UUID.
	ErrTAExists = errors.New("tee: trusted application already installed")
	// ErrBadCommand is returned by TAs for unknown command IDs.
	ErrBadCommand = errors.New("tee: unknown command id")
)

// Clock abstracts time so simulations can drive the secure world
// deterministically. It is the shared obs.Clock contract, so the same
// fake clock can drive the secure world and the metrics registry.
type Clock = obs.Clock

// SystemClock is the production clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// SimClock is a manually advanced clock for deterministic simulation.
type SimClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewSimClock creates a simulation clock starting at t.
func NewSimClock(t time.Time) *SimClock { return &SimClock{now: t} }

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Set moves the clock to t.
func (c *SimClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

// Advance moves the clock forward by d and returns the new time.
func (c *SimClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// TrustedApp is a secure-world application. Invoke receives the command ID
// and an opaque request payload and returns an opaque response, exactly
// like the GlobalPlatform TEE Internal API entry point.
type TrustedApp interface {
	UUID() UUID
	Invoke(cmd uint32, req []byte) ([]byte, error)
}

// Stats are the monotonic secure-world counters the performance model
// consumes.
type Stats struct {
	SMCCalls    uint64 // world switches (one per Invoke: entry+exit pair)
	Signs       uint64 // asymmetric signatures computed in the TEE
	MACs        uint64 // symmetric MAC tags computed in the TEE
	SignedBytes uint64 // total bytes covered by signatures/MACs
}

// Metric names exported by the drone's secure world. They mirror the
// Stats counters one-to-one so the perf model and a live scrape agree.
const (
	// MetricSMCTotal counts world switches (one per Invoke).
	MetricSMCTotal = "alidrone_tee_smc_total"
	// MetricSignsTotal counts asymmetric signatures computed in the TEE.
	MetricSignsTotal = "alidrone_tee_signs_total"
	// MetricMACsTotal counts symmetric MAC tags computed in the TEE.
	MetricMACsTotal = "alidrone_tee_macs_total"
	// MetricSignedBytesTotal counts bytes covered by signatures/MACs.
	MetricSignedBytesTotal = "alidrone_tee_signed_bytes_total"
	// MetricSignSeconds is the latency histogram of in-TEE signing,
	// labelled op=sign|seal|commit.
	MetricSignSeconds = "alidrone_tee_sign_seconds"
)

// deviceMetrics is every series the secure world updates, resolved once
// when a registry is attached: an SMC or a signature renders no name.
type deviceMetrics struct {
	reg                           *obs.Registry
	smc, signs, macs, signedBytes *obs.Counter
	signSeconds                   obs.Series[*obs.Histogram] // by op
}

// Device models one TrustZone-capable SoC with its secure world.
type Device struct {
	clock   Clock
	vault   *KeyVault
	metrics atomic.Pointer[deviceMetrics] // nil: instrumentation off

	mu    sync.Mutex
	tas   map[UUID]TrustedApp
	stats Stats
}

// NewDevice manufactures a device: the vault is provisioned with the TEE
// keypair at this point, modelling the paper's requirement that T is
// generated at manufacturing time.
func NewDevice(clock Clock, vault *KeyVault) *Device {
	if clock == nil {
		clock = SystemClock{}
	}
	return &Device{
		clock: clock,
		vault: vault,
		tas:   make(map[UUID]TrustedApp),
	}
}

// Clock returns the device clock (TAs read time through this).
func (d *Device) Clock() Clock { return d.clock }

// SetMetrics attaches a metrics registry to the device, before or after
// its TAs are installed; a nil registry (the default) disables
// instrumentation at the cost of one pointer load per call.
func (d *Device) SetMetrics(reg *obs.Registry) {
	var m *deviceMetrics
	if reg != nil {
		m = &deviceMetrics{
			reg:         reg,
			smc:         reg.ResolveCounter(MetricSMCTotal),
			signs:       reg.ResolveCounter(MetricSignsTotal),
			macs:        reg.ResolveCounter(MetricMACsTotal),
			signedBytes: reg.ResolveCounter(MetricSignedBytesTotal),
			signSeconds: reg.HistogramSeries(MetricSignSeconds, "op", obs.DurationBuckets, "sign", "seal", "commit"),
		}
	}
	d.metrics.Store(m)
}

// Vault exposes the key vault to trusted applications at install time.
// The returned handle only allows signing and public-key export; the
// private key never crosses the package boundary.
func (d *Device) Vault() *KeyVault { return d.vault }

// Install registers a trusted application under its UUID.
func (d *Device) Install(ta TrustedApp) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := ta.UUID()
	if _, ok := d.tas[id]; ok {
		return fmt.Errorf("%w: %s", ErrTAExists, id)
	}
	d.tas[id] = ta
	return nil
}

// Invoke performs a Secure Monitor Call into the TA with the given UUID.
// This is the only path from the normal world into the secure world.
func (d *Device) Invoke(id UUID, cmd uint32, req []byte) ([]byte, error) {
	d.mu.Lock()
	ta, ok := d.tas[id]
	if ok {
		d.stats.SMCCalls++
	}
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTA, id)
	}
	if m := d.metrics.Load(); m != nil {
		m.smc.Inc()
	}
	return ta.Invoke(cmd, req)
}

// Snapshot returns a copy of the secure-world counters.
func (d *Device) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the counters (used between benchmark phases).
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// chargeSign is called by TAs after computing a signature so the device
// counters stay accurate.
func (d *Device) chargeSign(coveredBytes int) {
	d.mu.Lock()
	d.stats.Signs++
	d.stats.SignedBytes += uint64(coveredBytes)
	d.mu.Unlock()
	if m := d.metrics.Load(); m != nil {
		m.signs.Inc()
		m.signedBytes.Add(uint64(coveredBytes))
	}
}

// chargeMAC is called by TAs after computing a symmetric tag.
func (d *Device) chargeMAC(coveredBytes int) {
	d.mu.Lock()
	d.stats.MACs++
	d.stats.SignedBytes += uint64(coveredBytes)
	d.mu.Unlock()
	if m := d.metrics.Load(); m != nil {
		m.macs.Inc()
		m.signedBytes.Add(uint64(coveredBytes))
	}
}
