package poa

import (
	"fmt"

	"repro/internal/geo"
)

// TestMode selects how ellipse-zone disjointness is decided.
type TestMode int

const (
	// Conservative uses the paper's boundary-distance test
	// D1 + D2 > vmax*(t2-t1): sound (never accepts an intersecting pair)
	// but may flag some disjoint pairs as insufficient. Projection-free
	// and cheap — this is what the in-flight sampler uses.
	Conservative TestMode = iota + 1
	// Exact decides true geometric disjointness of the travel ellipse and
	// the zone disk via convex minimisation on a local plane.
	Exact
)

// String implements fmt.Stringer for diagnostics.
func (m TestMode) String() string {
	switch m {
	case Conservative:
		return "conservative"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("TestMode(%d)", int(m))
	}
}

// PairSufficient reports whether the consecutive sample pair (s1, s2)
// proves the drone could not have entered zone z during [t1, t2], i.e.
// whether the possible-travel-range ellipse is disjoint from z.
//
// A non-positive or zero time gap makes the ellipse degenerate; callers
// should have validated chronology first — such pairs are treated as
// insufficient only if a sample actually lies in the zone.
func PairSufficient(s1, s2 Sample, z geo.GeoCircle, vmaxMS float64, mode TestMode) bool {
	t := newPairTest(s1, s2, vmaxMS, mode)
	return t.sufficient(z)
}

// pairTest is one consecutive pair prepared for testing against any
// number of zones: what depends on the pair alone — the travel budget
// and, in Exact mode, the pair's tangent plane and travel ellipse — is
// built here once, so a zone costs a projection of its centre and the
// disjointness test, nothing else.
type pairTest struct {
	p1, p2 geo.LatLon
	limit  float64 // vmax·Δt, metres

	// Exact mode only: the plane anchored at p1 and the ellipse on it.
	pr *geo.Projection
	e  geo.TravelEllipse
}

func newPairTest(s1, s2 Sample, vmaxMS float64, mode TestMode) pairTest {
	dt := max(0, s2.Time.Sub(s1.Time).Seconds())
	t := pairTest{p1: s1.Pos, p2: s2.Pos, limit: vmaxMS * dt}
	if mode == Exact {
		t.pr = geo.NewProjection(s1.Pos)
		t.e = geo.NewTravelEllipse(t.pr.ToLocal(s1.Pos), t.pr.ToLocal(s2.Pos), dt, vmaxMS)
	}
	return t
}

// sufficient reports whether the pair's travel range is disjoint from z.
func (t *pairTest) sufficient(z geo.GeoCircle) bool {
	if t.pr != nil {
		return !t.e.IntersectsDisk(z.ToLocal(t.pr))
	}
	return z.BoundaryDistMeters(t.p1)+z.BoundaryDistMeters(t.p2) > t.limit
}

// Insufficiency pinpoints one failed pair/zone combination in a trace.
type Insufficiency struct {
	PairIndex int // i: the gap between samples i and i+1
	ZoneIndex int // index into the zone slice passed to the verifier
}

// Report is the outcome of verifying a whole trace against a zone set.
type Report struct {
	Pairs           int             // number of consecutive pairs checked
	Insufficiencies []Insufficiency // every failed (pair, zone)
}

// Sufficient reports whether the whole trace proved alibi to every zone.
func (r Report) Sufficient() bool { return len(r.Insufficiencies) == 0 }

// InsufficientPairs returns the number of distinct sample pairs with at
// least one insufficiency — the quantity plotted in the paper's Fig 8-(c).
func (r Report) InsufficientPairs() int {
	seen := make(map[int]bool, len(r.Insufficiencies))
	for _, ins := range r.Insufficiencies {
		seen[ins.PairIndex] = true
	}
	return len(seen)
}

// VerifySufficiency checks eq. 1 of the paper: every consecutive sample
// pair must prove impossibility of travelling into every zone. Samples must
// be strictly chronological and number at least two. Insufficiencies are
// reported in ascending (pair, zone) order.
func VerifySufficiency(samples []Sample, zones []geo.GeoCircle, vmaxMS float64, mode TestMode) (Report, error) {
	if len(samples) < 2 {
		return Report{}, ErrTooFewSamples
	}
	if err := CheckChronology(samples); err != nil {
		return Report{}, err
	}

	rep := Report{Pairs: len(samples) - 1}
	for i := 0; i < rep.Pairs; i++ {
		t := newPairTest(samples[i], samples[i+1], vmaxMS, mode)
		for zi, z := range zones {
			if !t.sufficient(z) {
				rep.Insufficiencies = append(rep.Insufficiencies, Insufficiency{PairIndex: i, ZoneIndex: zi})
			}
		}
	}
	return rep, nil
}

// CountInsufficient implements the running counter from the paper's
// residential study (Fig 8-(c)): for each consecutive pair it adds one when
//
//	min_j (d_{i,j} + d_{i+1,j}) < vmax * (t_{i+1} - t_i)
//
// where d_{i,j} is the distance from sample i to the boundary of zone j.
// It returns the cumulative count after each pair (len = len(samples)-1).
func CountInsufficient(samples []Sample, zones []geo.GeoCircle, vmaxMS float64) []int {
	if len(samples) < 2 {
		return nil
	}
	counts := make([]int, 0, len(samples)-1)
	total := 0
	for i := 0; i+1 < len(samples); i++ {
		dt := samples[i+1].Time.Sub(samples[i].Time).Seconds()
		minSum, found := 0.0, false
		for _, z := range zones {
			// Boundary distances are signed: a sample inside a zone
			// contributes negatively, which correctly makes the pair
			// insufficient.
			sum := z.BoundaryDistMeters(samples[i].Pos) + z.BoundaryDistMeters(samples[i+1].Pos)
			if !found || sum < minSum {
				minSum, found = sum, true
			}
		}
		if found && minSum < vmaxMS*dt {
			total++
		}
		counts = append(counts, total)
	}
	return counts
}

// SpeedFeasible reports whether every consecutive pair is physically
// achievable under the speed bound (the travel ellipse is non-empty). A
// violation means the trace itself is impossible — a strong forgery signal
// the auditor checks before sufficiency.
func SpeedFeasible(samples []Sample, vmaxMS float64) error {
	for i := 0; i+1 < len(samples); i++ {
		dt := samples[i+1].Time.Sub(samples[i].Time).Seconds()
		dist := geo.HaversineMeters(samples[i].Pos, samples[i+1].Pos)
		if dist > vmaxMS*dt {
			return fmt.Errorf("poa: samples %d-%d require %.1f m in %.2f s (vmax %.1f m/s)",
				i, i+1, dist, dt, vmaxMS)
		}
	}
	return nil
}
