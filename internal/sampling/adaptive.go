package sampling

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/zone"
)

// Adaptive implements Algorithm 1 of the paper: the Adapter reads the GPS
// in the normal world at the hardware update rate R, finds the nearest
// no-fly zone, and only crosses into the secure world (GetGPSAuth) when the
// possible-travel-range is about to touch the nearest zone:
//
//	condition (2): D1 + D2 >= vmax * (t2 - t1)        — still sufficient
//	condition (3): D1 + D2 <= vmax * (t2 - t1 + 2/R)  — but not for long
//
// where D_i is the distance from sample i to the nearest zone boundary, S1
// is the last sample recorded in the PoA and S2 the latest normal-world
// read.
type Adaptive struct {
	Env    Env
	Index  *zone.Index // nearest-zone search over the flight's NFZ set
	VMaxMS float64     // FAA speed bound

	// StrictPaper selects the literal Algorithm 1 guard, which skips the
	// secure-world call when the alibi is *already* insufficient
	// (condition (2) false). The default (false) also re-anchors in that
	// case, which bounds the damage of a missed GPS update to a single
	// insufficient pair. This is the ablation discussed in DESIGN.md.
	StrictPaper bool

	// MaxGap, when positive, forces a heartbeat sample whenever no PoA
	// sample was taken for this long (e.g. when no zone is nearby at
	// all). Zero disables the heartbeat.
	MaxGap time.Duration

	// Metrics, when set, receives read/auth counters and the
	// samples-per-zone-crossing histogram under mode="adaptive".
	Metrics *obs.Registry
}

// Run executes the adaptive loop from the receiver's first update until the
// end instant.
func (a *Adaptive) Run(until time.Time) (*RunResult, error) {
	if a.VMaxMS <= 0 {
		return nil, fmt.Errorf("%w: vmax %v", ErrBadRate, a.VMaxMS)
	}

	res := newRunResult()
	rateR := a.Env.Receiver.RateHz()
	start := a.Env.Receiver.FirstUpdate()
	if start.After(until) {
		return nil, ErrNoSamples
	}

	// crossing tracks the burst of consecutive zone-triggered samples:
	// each approach to a zone shows up as one histogram observation of
	// how many authenticated samples it cost.
	heartbeats := a.Metrics.Counter(obs.L(MetricHeartbeatsTotal, "mode", "adaptive"))
	crossing := a.Metrics.Histogram(obs.L(MetricZoneCrossingSamples, "mode", "adaptive"), obs.CountBuckets)
	burst := 0
	flushBurst := func() {
		if burst > 0 {
			crossing.Observe(float64(burst))
			burst = 0
		}
	}

	// The first PoA sample anchors the trace at the start of the flight
	// (S_{k0} = S_0 in the paper).
	a.Env.Clock.Set(start)
	last, err := a.authSample(res)
	if err != nil {
		return nil, fmt.Errorf("adaptive first sample: %w", err)
	}
	// d1 is last's distance to its nearest zone boundary. It moves only
	// when a sample is recorded, so it is searched for then, not at every
	// GPS update.
	d1, _, err := a.nearest(last.Pos)
	if err != nil {
		return nil, err
	}

	for at := a.Env.Receiver.NextUpdateAfter(start); !at.After(until); at = a.Env.Receiver.NextUpdateAfter(at) {
		a.Env.Clock.Set(at)
		s2, err := a.readSample(res)
		if err != nil {
			return nil, fmt.Errorf("adaptive read at %v: %w", at, err)
		}

		record := false
		d2, zones, err := a.nearest(s2.Pos)
		if err != nil {
			return nil, err
		}
		// With no zones there is nothing to prove alibi against; only
		// the heartbeat fires.
		if zones {
			dt := s2.Time.Sub(last.Time).Seconds()
			sum := d1 + d2
			cond2 := sum >= a.VMaxMS*dt           // pair still sufficient
			cond3 := sum <= a.VMaxMS*(dt+2/rateR) // will not be after the next update
			if a.StrictPaper {
				record = cond2 && cond3
			} else {
				record = cond3
			}
		}
		zoneTriggered := record
		if !record && a.MaxGap > 0 && s2.Time.Sub(last.Time) >= a.MaxGap {
			record = true
		}

		switch {
		case record:
			last, err = a.authSample(res)
			if err != nil {
				return nil, fmt.Errorf("adaptive auth at %v: %w", at, err)
			}
			if d1, _, err = a.nearest(last.Pos); err != nil {
				return nil, err
			}
			if zoneTriggered {
				burst++
			} else {
				heartbeats.Inc()
				flushBurst()
			}
		default:
			flushBurst()
		}
	}
	flushBurst()

	// Close the trace with a final sample so the PoA covers the entire
	// flight period (goal G1): without it, nothing constrains the drone
	// between the last recorded sample and landing.
	if fix, err := a.Env.Receiver.LatestFix(until); err == nil && fix.Time.After(last.Time) {
		a.Env.Clock.Set(fix.Time)
		if _, err := a.authSample(res); err != nil {
			return nil, fmt.Errorf("adaptive final sample: %w", err)
		}
	}

	res.finish(start, until)
	return res, nil
}

// nearest returns p's distance to the nearest zone boundary; zones is
// false when the flight has no zone at all.
func (a *Adaptive) nearest(p geo.LatLon) (d float64, zones bool, err error) {
	_, d, err = a.Index.Nearest(p)
	switch {
	case errors.Is(err, zone.ErrNoZones):
		return 0, false, nil
	case err != nil:
		return 0, false, fmt.Errorf("adaptive nearest zone: %w", err)
	}
	return d, true, nil
}

// readSample performs the cheap normal-world read.
func (a *Adaptive) readSample(res *RunResult) (poa.Sample, error) {
	s, err := a.Env.Read()
	if err != nil {
		return poa.Sample{}, err
	}
	res.Stats.Reads++
	a.Metrics.Counter(obs.L(MetricReadsTotal, "mode", "adaptive")).Inc()
	return s, nil
}

// authSample performs the secure-world authenticated sample and records it.
func (a *Adaptive) authSample(res *RunResult) (poa.Sample, error) {
	ss, err := a.Env.Auth()
	if err != nil {
		return poa.Sample{}, err
	}
	res.Stats.AuthCalls++
	a.Metrics.Counter(obs.L(MetricAuthTotal, "mode", "adaptive")).Inc()
	res.record(ss)
	return ss.Sample, nil
}

// RunResult bundles the PoA a sampler produced with its statistics.
type RunResult struct {
	PoA   poa.PoA
	Stats Stats
}

func newRunResult() *RunResult { return &RunResult{} }

// record appends a signed sample, skipping duplicates of the same hardware
// tick (two wake-ups can land on one update when rates are close).
func (r *RunResult) record(ss poa.SignedSample) {
	if n := r.PoA.Len(); n > 0 && !ss.Sample.Time.After(r.PoA.Samples[n-1].Sample.Time) {
		return
	}
	r.PoA.Append(ss)
	r.Stats.PoASamples = r.PoA.Len()
	r.Stats.Times = append(r.Stats.Times, ss.Sample.Time)
}

// finish stamps the run window.
func (r *RunResult) finish(start, until time.Time) {
	r.Stats.PoASamples = r.PoA.Len()
	r.Stats.Elapsed = until.Sub(start)
}
