package operator

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/protocol"
	"repro/internal/sampling"
	"repro/internal/trace"
	"repro/internal/zone"
)

// MissionConfig describes one complete flight workflow.
type MissionConfig struct {
	FlightSpec
	// QueryMargin pads the zone-query rectangle around the route
	// (default 2000 m).
	QueryMargin float64
	// Store, when set, persists the encrypted PoA before submission.
	Store *Store
	// FlightID names the persisted record (defaults to the start time).
	FlightID string
	// RotateEvery, when positive, rotates the TEE sign key after a flight
	// once that much flight-clock time has passed since the last rotation
	// (or registration). The rotation runs between landing and
	// submission, so the just-flown samples submit under the now-retired
	// epoch — inside the Auditor's acceptance window. Zero disables
	// rotation. Applies to every mode but MAC (whose envelope does not use
	// the TEE sign key) and streaming (which submits in flight).
	RotateEvery time.Duration
}

// MissionReport summarises a completed mission.
type MissionReport struct {
	FlightID string
	Zones    []zone.NFZ
	Run      *sampling.RunResult
	Verdict  protocol.SubmitPoAResponse
	// StreamedViolationAt is set in ModeStreaming when the online check
	// flagged mid-flight (-1 otherwise).
	StreamedViolationAt int
}

// RunMission executes the entire protocol workflow for one flight over the
// given route: zone query → Fly → (key rotation) → (persist) →
// submission. The drone must already be registered; the mission is
// checked against its mode and the transport before the first call.
//
// With a tracer attached (SetTracer) the flight-and-submit phase runs
// under a "drone.proof" root span — one trace per proof — with child
// spans for the TEE signing work and, through a context-binding API
// client, the HTTP submission and the auditor's verification pipeline.
func (d *Drone) RunMission(rx *gps.Receiver, route *trace.Route, cfg MissionConfig) (rep *MissionReport, err error) {
	if d.id == "" {
		return nil, ErrNotRegistered
	}
	row, err := d.check(cfg.FlightSpec, cfg.RotateEvery)
	if err != nil {
		return nil, err
	}
	if cfg.QueryMargin <= 0 {
		cfg.QueryMargin = 2000
	}
	if cfg.FlightID == "" {
		cfg.FlightID = fmt.Sprintf("flight-%d", route.Start().Unix())
	}
	zones, err := d.QueryZones(RouteBounds(route, cfg.QueryMargin))
	if err != nil {
		return nil, err
	}

	ctx, root := d.tracer.StartSpan(context.Background(), "drone.proof")
	root.SetAttr("flight", cfg.FlightID)
	root.SetAttr("mode", row.name)
	defer func() {
		root.SetError(err)
		root.End()
	}()

	p, err := d.Fly(ctx, rx, zone.Circles(zones), route.End(), cfg.FlightSpec)
	if err != nil {
		return nil, err
	}
	if row.rotates {
		if err = d.maybeRotate(cfg.RotateEvery); err != nil {
			return nil, err
		}
	}
	ct, err := d.encrypt(p)
	if err != nil {
		return nil, err
	}
	var rec *FlightRecord
	if row.persists && cfg.Store != nil {
		rec = &FlightRecord{FlightID: cfg.FlightID, DroneID: d.id, Start: route.Start(), End: route.End(), EncryptedPoA: ct}
		if err = cfg.Store.Save(*rec); err != nil {
			return nil, err
		}
	}
	verdict, err := d.send(ctx, p, ct)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.Submitted = true
		// Best effort: the verdict is already in hand; a failed
		// bookkeeping write must not fail the mission.
		_ = cfg.Store.Save(*rec)
	}
	root.SetAttr("verdict", string(verdict.Verdict))
	return &MissionReport{FlightID: cfg.FlightID, Zones: zones, Run: p.Run, Verdict: verdict, StreamedViolationAt: p.ViolationAt}, nil
}

// maybeRotate rotates the TEE key when at least `every` of flight-clock
// time has passed since the last rotation (or registration). Zero or
// negative disables rotation.
func (d *Drone) maybeRotate(every time.Duration) error {
	if every <= 0 {
		return nil
	}
	if d.clock.Now().Sub(d.lastRotate) < every {
		return nil
	}
	return d.RotateKey()
}

// RouteBounds computes the zone-query rectangle for a route: its bounding
// box padded by marginMeters.
func RouteBounds(r *trace.Route, marginMeters float64) geo.Rect {
	minLat, maxLat := math.Inf(1), math.Inf(-1)
	minLon, maxLon := math.Inf(1), math.Inf(-1)
	for _, wp := range r.Waypoints() {
		minLat = math.Min(minLat, wp.Pos.Lat)
		maxLat = math.Max(maxLat, wp.Pos.Lat)
		minLon = math.Min(minLon, wp.Pos.Lon)
		maxLon = math.Max(maxLon, wp.Pos.Lon)
	}
	rect := geo.Rect{MinLat: minLat, MinLon: minLon, MaxLat: maxLat, MaxLon: maxLon}
	return rect.Expand(marginMeters)
}
