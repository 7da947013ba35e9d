package gps

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/nmea"
)

var (
	// ErrNoFixYet is returned when the receiver has produced no update at
	// or before the queried instant.
	ErrNoFixYet = errors.New("gps: no fix available yet")
	// ErrBadRate is returned for update rates outside the hardware's
	// supported range.
	ErrBadRate = errors.New("gps: update rate outside supported range")
)

// Hardware limits of the simulated receiver, matching the Adafruit
// Ultimate GPS breakout used by the paper (configurable 1-5 Hz, NMEA 0183).
const (
	MinUpdateRateHz = 1.0
	MaxUpdateRateHz = 5.0
)

// ReceiverOption configures a Receiver.
type ReceiverOption func(*Receiver)

// WithNoise adds zero-mean Gaussian position noise with the given standard
// deviation in metres, drawn from rng. Real consumer GPS jitters by a few
// metres; the deterministic default (no noise) keeps experiment replays
// exactly reproducible.
func WithNoise(rng *rand.Rand, stdMeters float64) ReceiverOption {
	return func(r *Receiver) {
		r.rng = rng
		r.noiseStd = stdMeters
	}
}

// WithMissedUpdates drops the given update ticks (0-based indices since the
// path start): the hardware produces no new measurement at those ticks, so
// the latest available fix stays stale. This reproduces the missed update
// the paper observed at the 25 ft approach in the residential study, which
// halved the effective rate from 5 Hz to 2.5 Hz.
func WithMissedUpdates(ticks ...int64) ReceiverOption {
	return func(r *Receiver) {
		for _, k := range ticks {
			r.missed[k] = true
		}
	}
}

// Receiver simulates the GPS hardware: it updates its measurement buffer at
// a fixed rate while moving along a Path, and answers "latest fix" queries
// exactly the way the memory-mapped buffer in the OP-TEE driver does.
type Receiver struct {
	path     path
	rateHz   float64
	missed   map[int64]bool
	rng      *rand.Rand
	noiseStd float64
}

// path is the internal alias so Receiver methods read naturally.
type path = Path

// NewReceiver builds a receiver traversing p with the given update rate.
func NewReceiver(p Path, rateHz float64, opts ...ReceiverOption) (*Receiver, error) {
	if rateHz < MinUpdateRateHz || rateHz > MaxUpdateRateHz {
		return nil, fmt.Errorf("%w: %v Hz not in [%v, %v]", ErrBadRate, rateHz, MinUpdateRateHz, MaxUpdateRateHz)
	}
	r := &Receiver{
		path:   p,
		rateHz: rateHz,
		missed: make(map[int64]bool),
	}
	for _, opt := range opts {
		opt(r)
	}
	return r, nil
}

// RateHz returns the configured hardware update rate.
func (r *Receiver) RateHz() float64 { return r.rateHz }

// UpdatePeriod returns the interval between hardware measurement updates.
func (r *Receiver) UpdatePeriod() time.Duration { return r.tickOffset(1) }

// tickOffset is when update tick k happens after the path start, in whole
// nanoseconds. It is the one tick-to-time conversion: tickTime adds it to
// the start and tickIndexAtOrBefore inverts it exactly, so a tick's own
// instant maps back to that tick even when the period is not a whole
// number of nanoseconds (3 Hz).
func (r *Receiver) tickOffset(k int64) time.Duration {
	return time.Duration(float64(k) * float64(time.Second) / r.rateHz)
}

// tickTime returns the wall time of update tick k.
func (r *Receiver) tickTime(k int64) time.Time {
	return r.path.Start().Add(r.tickOffset(k))
}

// tickIndexAtOrBefore returns the index of the last update tick at or
// before t, or -1 when t precedes the first tick. A tick counts as
// reached 1e-9 of a period early, truncated to whole nanoseconds: one
// nanosecond at 1 Hz, none at the faster rates. The fix-rate sampler asks
// for the update after the instant one nanosecond before its wake-up, so
// at 1 Hz it samples the update after the wake-up tick; the evaluation's
// 1 Hz counts (Fig 6) are taken that way.
func (r *Receiver) tickIndexAtOrBefore(t time.Time) int64 {
	dt := t.Sub(r.path.Start())
	if dt < 0 {
		return -1
	}
	dt += r.tickOffset(1) / time.Second
	// The float estimate is off by at most one tick; settle it against
	// tickOffset itself.
	k := int64(float64(dt) * r.rateHz / float64(time.Second))
	for k > 0 && r.tickOffset(k) > dt {
		k--
	}
	for r.tickOffset(k+1) <= dt {
		k++
	}
	return k
}

// LatestFix returns the most recent measurement available at instant t,
// skipping missed ticks, exactly as reading the driver's sentence buffer
// would. The fix's own timestamp is the tick at which it was measured (not
// t).
func (r *Receiver) LatestFix(t time.Time) (Fix, error) {
	k := r.tickIndexAtOrBefore(t)
	for ; k >= 0; k-- {
		if r.missed[k] {
			continue
		}
		tick := r.tickTime(k)
		if tick.After(r.path.End()) {
			// Past the end of the path the receiver keeps reporting the
			// final position; clamp the tick into range.
			tick = r.path.End()
		}
		fix := r.path.Position(tick)
		fix.Time = tick
		if r.noiseStd > 0 && r.rng != nil {
			fix.Pos = jitter(r.rng, fix.Pos, r.noiseStd)
		}
		return fix, nil
	}
	return Fix{}, ErrNoFixYet
}

// FirstUpdate returns the instant of the first non-missed hardware update
// of the flight.
func (r *Receiver) FirstUpdate() time.Time {
	var k int64
	for r.missed[k] {
		k++
	}
	return r.tickTime(k)
}

// NextUpdateAfter returns the instant of the first non-missed hardware
// update strictly after t. The fix-rate sampler uses this to model the
// paper's "wait until the first measurement update after waking" semantics.
func (r *Receiver) NextUpdateAfter(t time.Time) time.Time {
	k := r.tickIndexAtOrBefore(t) + 1
	if k < 0 {
		k = 0
	}
	for r.missed[k] {
		k++
	}
	return r.tickTime(k)
}

// LatestSentence renders the latest fix as the framed $GPRMC sentence that
// sits in the driver's RX buffer.
func (r *Receiver) LatestSentence(t time.Time) (string, error) {
	fix, err := r.LatestFix(t)
	if err != nil {
		return "", err
	}
	return nmea.EncodeRMC(nmea.RMC{
		Time:       fix.Time,
		Valid:      true,
		Lat:        fix.Pos.Lat,
		Lon:        fix.Pos.Lon,
		SpeedKnots: geo.MetersPerSecondToKnots(fix.SpeedMS),
		CourseDeg:  fix.CourseDeg,
	}), nil
}

// LatestAltitudeSentence renders the latest fix as a framed $GPGGA
// sentence, carrying the altitude needed by the 3-D extension.
func (r *Receiver) LatestAltitudeSentence(t time.Time) (string, error) {
	fix, err := r.LatestFix(t)
	if err != nil {
		return "", err
	}
	midnight := time.Date(fix.Time.Year(), fix.Time.Month(), fix.Time.Day(), 0, 0, 0, 0, time.UTC)
	return nmea.EncodeGGA(nmea.GGA{
		TimeOfDay:  fix.Time.Sub(midnight),
		Lat:        fix.Pos.Lat,
		Lon:        fix.Pos.Lon,
		Quality:    nmea.FixGPS,
		Satellites: 9,
		HDOP:       1.1,
		AltMeters:  fix.AltMeters,
	}), nil
}

// jitter displaces p by a Gaussian offset with the given std in metres.
func jitter(rng *rand.Rand, p geo.LatLon, stdMeters float64) geo.LatLon {
	bearing := rng.Float64() * 360
	dist := math.Abs(rng.NormFloat64()) * stdMeters
	return p.Offset(bearing, dist)
}
