package flightsim

import (
	"math"

	"repro/internal/geo"
)

// Controller is a simple pursuit waypoint follower: it accelerates toward
// the current target at cruise speed, brakes on approach, and advances to
// the next waypoint once within the capture radius.
type Controller struct {
	// CruiseSpeedMS is the commanded ground speed between waypoints
	// (default 15 m/s).
	CruiseSpeedMS float64
	// CaptureRadiusM is how close the drone must pass a waypoint before
	// switching to the next (default 15 m).
	CaptureRadiusM float64
	// GainPerSec converts velocity error into commanded acceleration
	// (default 1.5 /s).
	GainPerSec float64

	target int
}

// withDefaults fills unset gains.
func (c Controller) withDefaults() Controller {
	if c.CruiseSpeedMS <= 0 {
		c.CruiseSpeedMS = 15
	}
	if c.CaptureRadiusM <= 0 {
		c.CaptureRadiusM = 15
	}
	if c.GainPerSec <= 0 {
		c.GainPerSec = 1.5
	}
	return c
}

// Done reports whether every waypoint has been captured.
func (c *Controller) Done(waypoints []geo.Point) bool {
	return c.target >= len(waypoints)
}

// Command computes the acceleration demand for the current state.
func (c *Controller) Command(b *Body, waypoints []geo.Point) geo.Point {
	if c.Done(waypoints) {
		// Brake to a stop.
		return b.Vel.Scale(-c.GainPerSec)
	}
	wp := waypoints[c.target]
	toGo := wp.Sub(b.Pos)
	dist := toGo.Norm()
	if dist <= c.CaptureRadiusM {
		c.target++
		return c.Command(b, waypoints)
	}

	// Desired speed: cruise, tapering near the final waypoint so the
	// drone arrives rather than orbits.
	desired := c.CruiseSpeedMS
	if c.target == len(waypoints)-1 {
		desired = math.Min(desired, math.Max(2, dist/3))
	}
	want := toGo.Scale(desired / dist)
	err := want.Sub(b.Vel)
	return err.Scale(c.GainPerSec)
}
