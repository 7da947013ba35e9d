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
// read. Rule selects that guard or the held-read rule.
type Adaptive struct {
	Env    Env
	Index  *zone.Index // nearest-zone search over the flight's NFZ set
	VMaxMS float64     // FAA speed bound

	// Rule selects when the sampler crosses into the secure world. The
	// zero value is Algorithm 1, which the paper experiments run.
	Rule Rule

	// MaxGap, when positive, forces a heartbeat sample whenever no PoA
	// sample was taken for this long (e.g. when no zone is nearby at
	// all). Zero disables the heartbeat.
	MaxGap time.Duration

	// Metrics, when set, receives read/auth counters and the
	// samples-per-zone-crossing histogram under mode="adaptive".
	Metrics *obs.Registry
}

// Rule is the adaptive sampler's decision rule.
type Rule int

const (
	// Algorithm1 records the current read when condition (3) holds. It
	// also re-anchors when the pair is already insufficient (condition
	// (2) false), which bounds the damage of a missed GPS update to a
	// single insufficient pair.
	Algorithm1 Rule = iota
	// Algorithm1Strict is the literal Algorithm 1 guard, which skips the
	// secure-world call when the alibi is already insufficient. This is
	// the ablation discussed in DESIGN.md.
	Algorithm1Strict
	// HeldRead signs nothing while the pair (last signed, current read)
	// passes D1 + D2 > vmax*(t2-t1) + heldMarginM. When it fails, the TA
	// signs the previous read — a fix it observed and still holds, named
	// by its time — and the current read is tested again against it; if
	// that pair fails too, the current read is signed as well (the
	// re-anchor). Condition (3) has to guess that the drone moves at vmax
	// before the next read; the held read never guesses (DESIGN.md §4,
	// "The held read").
	HeldRead
)

// heldMarginM is the clearance the held-read test keeps beyond
// vmax*(t2-t1). The test runs on the normal-world read, but the PoA
// carries the signed sample: the position after the NMEA ddmm.mmmm
// sentence (rounded to 1e-4 arc-minute, at most 0.093 m per axis) and the
// 1e-7° canonical encoding (at most 0.006 m per axis), so D2 moves by at
// most 0.14 m. The signed time is truncated to the millisecond, which
// only shortens t2-t1. The verifiers demand a strict D1 + D2 > vmax*Δt,
// so any margin above 0.14 m keeps a pair the sampler passed sufficient
// after signing; 0.5 m also covers the float error of the nearest-zone
// search. It is a property of the fix encoding, not a knob.
const heldMarginM = 0.5

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
	last, err := a.authSample(res, time.Time{})
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
	// heldAt stamps the held-read rule's previous read, kept while its
	// pair with last passes; zero means there is none.
	var heldAt time.Time
	passes := func(d2 float64, s2 poa.Sample) bool {
		return d1+d2 > a.VMaxMS*s2.Time.Sub(last.Time).Seconds()+heldMarginM
	}

	for at := a.Env.Receiver.NextUpdateAfter(start); !at.After(until); at = a.Env.Receiver.NextUpdateAfter(at) {
		a.Env.Clock.Set(at)
		s2, err := a.readSample(res)
		if err != nil {
			return nil, fmt.Errorf("adaptive read at %v: %w", at, err)
		}

		record, heldSigned := false, false
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
			switch a.Rule {
			case Algorithm1Strict:
				record = cond2 && cond3
			case HeldRead:
				if !passes(d2, s2) && !heldAt.IsZero() {
					if last, err = a.authSample(res, heldAt); err != nil {
						return nil, fmt.Errorf("adaptive held auth at %v: %w", heldAt, err)
					}
					if d1, _, err = a.nearest(last.Pos); err != nil {
						return nil, err
					}
					burst++
					heldSigned = true
				}
				record = !passes(d2, s2)
			default:
				record = cond3
			}
		}
		zoneTriggered := record
		if !record && a.MaxGap > 0 && s2.Time.Sub(last.Time) >= a.MaxGap {
			record = true
		}

		switch {
		case record:
			last, err = a.authSample(res, time.Time{})
			if err != nil {
				return nil, fmt.Errorf("adaptive auth at %v: %w", at, err)
			}
			if d1, _, err = a.nearest(last.Pos); err != nil {
				return nil, err
			}
			heldAt = time.Time{}
			if zoneTriggered {
				burst++
			} else {
				heartbeats.Inc()
				flushBurst()
			}
		default:
			heldAt = s2.Time
			if !heldSigned {
				flushBurst()
			}
		}
	}
	flushBurst()

	// Close the trace with a final sample so the PoA covers the entire
	// flight period (goal G1): without it, nothing constrains the drone
	// between the last recorded sample and landing.
	if fix, err := a.Env.Receiver.LatestFix(until); err == nil && fix.Time.After(last.Time) {
		a.Env.Clock.Set(fix.Time)
		if _, err := a.authSample(res, time.Time{}); err != nil {
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

// authSample performs the secure-world authenticated sample — of the
// latest fix, or of the fix stamped held when held is non-zero — and
// records it.
func (a *Adaptive) authSample(res *RunResult, held time.Time) (poa.Sample, error) {
	ss, err := a.Env.Auth(held)
	if err != nil {
		return poa.Sample{}, err
	}
	if !held.IsZero() && !ss.Sample.Time.Equal(held.Truncate(time.Millisecond)) {
		return poa.Sample{}, fmt.Errorf("held fix signed at %v, want %v", ss.Sample.Time, held)
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
