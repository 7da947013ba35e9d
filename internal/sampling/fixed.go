package sampling

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// FixedRate is the paper's baseline sampler (§VI-A1 "Fix Rate Sampling"):
// it wakes at its configured rate and, because the GPS hardware updates on
// its own schedule, waits for the first measurement update after each
// wake-up before taking the authenticated sample. With a 5 Hz receiver and
// a 3 Hz sampler, wake-ups at t = 0, 0.33, 0.67 s yield samples at
// t = 0, 0.4, 0.8 s — the worked example in the paper.
type FixedRate struct {
	Env    Env
	RateHz float64

	// Metrics, when set, receives the auth-call counter under
	// mode="fixed".
	Metrics *obs.Registry
}

// Run samples from the receiver's first update until the end instant,
// recording every sample into the returned PoA.
func (f *FixedRate) Run(until time.Time) (poa *RunResult, err error) {
	if f.RateHz <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadRate, f.RateHz)
	}

	res := newRunResult()
	auths := f.Metrics.Counter(obs.L(MetricAuthTotal, "mode", "fixed"))
	period := time.Duration(float64(time.Second) / f.RateHz)

	// The sampler starts with the first hardware update of the flight.
	start := f.Env.Receiver.FirstUpdate()
	if start.After(until) {
		return nil, ErrNoSamples
	}

	for wake, k := start, 0; !wake.After(until); k++ {
		// Wait for the first measurement update at or after the wake-up.
		at := wake
		if k > 0 {
			at = f.Env.Receiver.NextUpdateAfter(wake.Add(-time.Nanosecond))
		}
		if at.After(until) {
			break
		}
		f.Env.Clock.Set(at)

		ss, err := f.Env.Auth(time.Time{})
		if err != nil {
			return nil, fmt.Errorf("fixed-rate sample %d: %w", k, err)
		}
		res.Stats.AuthCalls++
		auths.Inc()
		res.record(ss)

		wake = start.Add(time.Duration(k+1) * period)
	}

	if res.PoA.Len() == 0 {
		return nil, ErrNoSamples
	}
	res.finish(start, until)
	return res, nil
}
