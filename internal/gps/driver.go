package gps

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/nmea"
)

// Driver is the secure-world GPS driver (paper §V-B): it reads the latest
// $GPRMC (and, for the 3-D extension, $GPGGA) sentence from the receiver's
// buffer and parses it into the (latitude, longitude, timestamp) tuple via
// the NMEA stack — the GetGPS interface exposed to the GPS Sampler TA.
//
// In the paper this code runs in the OP-TEE kernel with the GPIO RX port
// memory-mapped; here the Receiver plays the role of that mapped buffer.
type Driver struct {
	rx *Receiver
}

// NewDriver wraps a receiver.
func NewDriver(rx *Receiver) *Driver { return &Driver{rx: rx} }

// GetGPS returns the latest parsed fix available at instant now. It goes
// through the full NMEA encode/parse round trip deliberately, so the
// simulated stack exercises the same code path as real hardware, including
// checksum verification and coordinate quantisation to the ddmm.mmmm wire
// resolution.
func (d *Driver) GetGPS(now time.Time) (Fix, error) {
	raw, err := d.rx.LatestSentence(now)
	if err != nil {
		return Fix{}, fmt.Errorf("read rx buffer: %w", err)
	}
	rmc, err := nmea.ParseRMC(raw)
	if err != nil {
		return Fix{}, fmt.Errorf("parse $GPRMC: %w", err)
	}
	return Fix{
		Pos:       geo.LatLon{Lat: rmc.Lat, Lon: rmc.Lon},
		SpeedMS:   geo.KnotsToMetersPerSecond(rmc.SpeedKnots),
		CourseDeg: rmc.CourseDeg,
		Time:      rmc.Time,
	}, nil
}

// GetGPS3D returns the latest fix including altitude, combining the $GPRMC
// and $GPGGA sentences (paper §VII-B1 extension).
func (d *Driver) GetGPS3D(now time.Time) (Fix, error) {
	fix, err := d.GetGPS(now)
	if err != nil {
		return Fix{}, err
	}
	raw, err := d.rx.LatestAltitudeSentence(now)
	if err != nil {
		return Fix{}, fmt.Errorf("read rx buffer: %w", err)
	}
	gga, err := nmea.ParseGGA(raw)
	if err != nil {
		return Fix{}, fmt.Errorf("parse $GPGGA: %w", err)
	}
	fix.AltMeters = gga.AltMeters
	return fix, nil
}
