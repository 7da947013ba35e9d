package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/tee"
)

// ErrSpoofSuspected is returned by the spoof guard when a fix fails its
// plausibility checks; the GPS Sampler then declines to sign it, as the
// paper's §VII-A2 proposes ("if the hardware is running in a suspicious
// environment, the GPS Sampler can decline to provide authenticity
// services").
var ErrSpoofSuspected = errors.New("core: gps fix failed plausibility checks, refusing to authenticate")

// SpoofGuardConfig tunes the secure-world GPS plausibility detector.
type SpoofGuardConfig struct {
	// MaxSpeedMS flags consecutive fixes implying a ground speed above
	// this bound (default 1.5 × the FAA 100 mph limit — legitimate GPS
	// noise stays far below it, while spoofed teleports exceed it).
	MaxSpeedMS float64
	// MaxFutureSkew flags fixes timestamped in the future relative to
	// the TEE clock by more than this (default 2 s). A spoofer replaying
	// a canned signal cannot keep GPS time consistent with the secure
	// clock.
	MaxFutureSkew time.Duration
	// MaxStaleness flags fixes older than this relative to the TEE clock
	// (default 10 s) — a frozen signal is the classic capture symptom.
	MaxStaleness time.Duration
	// Now supplies the secure-world clock for the timestamp checks; it
	// must be set by the platform (the guard runs inside the TEE).
	Now func() time.Time
}

// withDefaults fills unset fields.
func (c SpoofGuardConfig) withDefaults() SpoofGuardConfig {
	if c.MaxSpeedMS == 0 {
		c.MaxSpeedMS = 1.5 * geo.MaxDroneSpeedMPS
	}
	if c.MaxFutureSkew == 0 {
		c.MaxFutureSkew = 2 * time.Second
	}
	if c.MaxStaleness == 0 {
		c.MaxStaleness = 10 * time.Second
	}
	return c
}

// SpoofGuard wraps a GPS source with plausibility checks. It implements
// tee.GPSSource, so it slots transparently between the driver and the
// sampler TA inside the secure world.
type SpoofGuard struct {
	inner tee.GPSSource
	cfg   SpoofGuardConfig

	mu   sync.Mutex
	last *gps.Fix
}

var _ tee.GPSSource = (*SpoofGuard)(nil)

// NewSpoofGuard wraps the source.
func NewSpoofGuard(inner tee.GPSSource, cfg SpoofGuardConfig) *SpoofGuard {
	return &SpoofGuard{inner: inner, cfg: cfg.withDefaults()}
}

// GetGPS implements tee.GPSSource.
func (g *SpoofGuard) GetGPS(now time.Time) (gps.Fix, error) {
	fix, err := g.inner.GetGPS(now)
	if err != nil {
		return gps.Fix{}, err
	}
	if err := g.check(fix, now); err != nil {
		return gps.Fix{}, err
	}
	return fix, nil
}

// check runs the plausibility rules and updates the guard's memory of the
// last accepted fix.
func (g *SpoofGuard) check(fix gps.Fix, fallbackNow time.Time) error {
	now := fallbackNow
	if g.cfg.Now != nil {
		now = g.cfg.Now()
	}

	if fix.Time.After(now.Add(g.cfg.MaxFutureSkew)) {
		return fmt.Errorf("%w: fix timestamp %v is %v in the future",
			ErrSpoofSuspected, fix.Time, fix.Time.Sub(now))
	}
	if now.Sub(fix.Time) > g.cfg.MaxStaleness {
		return fmt.Errorf("%w: fix is %v stale", ErrSpoofSuspected, now.Sub(fix.Time))
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.last != nil && fix.Time.After(g.last.Time) {
		dt := fix.Time.Sub(g.last.Time).Seconds()
		dist := geo.HaversineMeters(g.last.Pos, fix.Pos)
		if dist > g.cfg.MaxSpeedMS*dt {
			return fmt.Errorf("%w: %.0f m jump in %.2f s implies %.0f m/s",
				ErrSpoofSuspected, dist, dt, dist/dt)
		}
	}
	cp := fix
	g.last = &cp
	return nil
}
