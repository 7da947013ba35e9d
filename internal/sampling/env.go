// Package sampling implements the paper's two PoA sampling strategies: the
// Fix Rate baseline (§VI-A1) and the Adaptive Sampling algorithm
// (Algorithm 1, §IV-C3). Both run as deterministic simulations over a
// simulated clock, a simulated GPS receiver and the TEE GPS Sampler, and
// produce the Proof-of-Alibi plus the statistics the evaluation figures
// plot (sample counts, instantaneous rates).
package sampling

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/tee"
)

var (
	// ErrNoSamples is returned when a run produces no samples at all.
	ErrNoSamples = errors.New("sampling: no samples produced")
	// ErrBadRate is returned for non-positive sampling rates.
	ErrBadRate = errors.New("sampling: non-positive sampling rate")
)

// Env wires a sampler to the simulated world. Read is the cheap
// normal-world GPS read the Adapter performs every hardware update; Auth
// crosses into the secure world and returns a signed sample (the costly
// GetGPSAuth call the adaptive algorithm tries to minimise) of the latest
// fix, or, when held is non-zero, of the earlier fix stamped held (the
// held-read rule's call; see tee.HeldFix).
type Env struct {
	Receiver *gps.Receiver
	Clock    *tee.SimClock
	Read     func() (poa.Sample, error)
	Auth     func(held time.Time) (poa.SignedSample, error)
}

// NewTEEEnv builds the standard environment: normal-world reads go straight
// to the receiver, authenticated samples go through the device's SMC
// interface into the GPS Sampler TA.
func NewTEEEnv(dev *tee.Device, clock *tee.SimClock, rx *gps.Receiver) Env {
	return Env{
		Receiver: rx,
		Clock:    clock,
		Read: func() (poa.Sample, error) {
			fix, err := rx.LatestFix(clock.Now())
			if err != nil {
				return poa.Sample{}, fmt.Errorf("normal-world gps read: %w", err)
			}
			return poa.Sample{Pos: fix.Pos, AltMeters: fix.AltMeters, Time: fix.Time}, nil
		},
		Auth: func(held time.Time) (poa.SignedSample, error) {
			resp, err := dev.Invoke(tee.GPSSamplerUUID, tee.CmdGetGPSAuth, tee.HeldFix(held))
			if err != nil {
				return poa.SignedSample{}, fmt.Errorf("GetGPSAuth: %w", err)
			}
			return tee.DecodeAuthSample(resp)
		},
	}
}

// Stats captures what a sampling run did, for the evaluation figures.
type Stats struct {
	PoASamples int           // samples recorded into the PoA
	Reads      int           // normal-world GPS reads
	AuthCalls  int           // secure-world GetGPSAuth invocations
	Times      []time.Time   // timestamp of every PoA sample, in order
	Elapsed    time.Duration // simulated flight time covered
}

// RatePoint is one point of the instantaneous-sampling-rate series
// (Fig 8-(b)): the rate implied by the gap ending at T.
type RatePoint struct {
	T  time.Time
	Hz float64
}

// InstantRates derives the instantaneous sampling rate series from the
// recorded sample times: for each consecutive pair, 1/gap at the later
// sample.
func (s Stats) InstantRates() []RatePoint {
	if len(s.Times) < 2 {
		return nil
	}
	out := make([]RatePoint, 0, len(s.Times)-1)
	for i := 1; i < len(s.Times); i++ {
		gap := s.Times[i].Sub(s.Times[i-1]).Seconds()
		if gap <= 0 {
			continue
		}
		out = append(out, RatePoint{T: s.Times[i], Hz: 1 / gap})
	}
	return out
}

// MeanRateHz is the average PoA sampling rate over the run.
func (s Stats) MeanRateHz() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.PoASamples) / s.Elapsed.Seconds()
}
