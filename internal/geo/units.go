// Package geo provides the geodesy substrate for AliDrone: WGS-84
// coordinates, a local planar projection, distances, no-fly-zone circles,
// possible-travel-range ellipses (2-D) and ellipsoids (3-D), polygons, and
// the smallest-enclosing-circle construction used for polygonal no-fly
// zones.
//
// All internal computation is carried out in metres and seconds on a local
// east-north plane; the package exposes conversion helpers for the imperial
// units used throughout the paper (feet, miles, mph) and the knots reported
// by NMEA receivers.
package geo

// Conversion factors between the units used by the paper/FAA regulations and
// the SI units used internally.
const (
	// MetersPerFoot converts international feet to metres.
	MetersPerFoot = 0.3048
	// MetersPerMile converts statute miles to metres.
	MetersPerMile = 1609.344
	// MetersPerNauticalMile converts nautical miles to metres.
	MetersPerNauticalMile = 1852.0
	// EarthRadiusMeters is the mean Earth radius used by the haversine
	// formula.
	EarthRadiusMeters = 6371008.8
)

// FeetToMeters converts a length in feet to metres.
func FeetToMeters(ft float64) float64 { return ft * MetersPerFoot }

// MetersToFeet converts a length in metres to feet.
func MetersToFeet(m float64) float64 { return m / MetersPerFoot }

// MilesToMeters converts a length in statute miles to metres.
func MilesToMeters(mi float64) float64 { return mi * MetersPerMile }

// MetersToMiles converts a length in metres to statute miles.
func MetersToMiles(m float64) float64 { return m / MetersPerMile }

// MPHToMetersPerSecond converts a speed in miles per hour to metres per
// second.
func MPHToMetersPerSecond(mph float64) float64 { return mph * MetersPerMile / 3600 }

// KnotsToMetersPerSecond converts a speed in knots (used by NMEA $GPRMC
// sentences) to metres per second.
func KnotsToMetersPerSecond(kn float64) float64 { return kn * MetersPerNauticalMile / 3600 }

// MetersPerSecondToKnots converts a speed in metres per second to knots.
func MetersPerSecondToKnots(ms float64) float64 { return ms * 3600 / MetersPerNauticalMile }

// MaxDroneSpeedMPS is the FAA part-107 maximum drone ground speed (100 mph)
// that the Proof-of-Alibi possible-travel-range argument relies on,
// expressed in metres per second.
var MaxDroneSpeedMPS = MPHToMetersPerSecond(100)
