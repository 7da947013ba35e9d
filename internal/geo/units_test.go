package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestUnitConversions(t *testing.T) {
	tests := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"one foot", FeetToMeters(1), 0.3048, 1e-12},
		{"one mile", MilesToMeters(1), 1609.344, 1e-9},
		{"five miles (airport NFZ radius)", MilesToMeters(5), 8046.72, 1e-9},
		{"100 mph (FAA vmax)", MPHToMetersPerSecond(100), 44.704, 1e-9},
		{"one knot", KnotsToMetersPerSecond(1), 0.514444, 1e-5},
		{"20 ft (residential NFZ radius)", FeetToMeters(20), 6.096, 1e-12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !almostEqual(tt.got, tt.want, tt.tol) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestConversionRoundTrips(t *testing.T) {
	// Map arbitrary quick inputs into a physically meaningful range so the
	// conversion factors cannot overflow float64 at the extremes.
	clamp := func(x float64) float64 { return math.Mod(x, 1e9) }
	props := []struct {
		name string
		fn   func(float64) bool
	}{
		{"feet", func(raw float64) bool {
			x := clamp(raw)
			return almostEqual(MetersToFeet(FeetToMeters(x)), x, 1e-6*math.Abs(x)+1e-9)
		}},
		{"miles", func(raw float64) bool {
			x := clamp(raw)
			return almostEqual(MetersToMiles(MilesToMeters(x)), x, 1e-6*math.Abs(x)+1e-9)
		}},
		{"knots", func(raw float64) bool {
			x := clamp(raw)
			return almostEqual(MetersPerSecondToKnots(KnotsToMetersPerSecond(x)), x, 1e-6*math.Abs(x)+1e-9)
		}},
	}
	for _, p := range props {
		t.Run(p.name, func(t *testing.T) {
			if err := quick.Check(p.fn, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestMaxDroneSpeed(t *testing.T) {
	if !almostEqual(MaxDroneSpeedMPS, 44.704, 1e-9) {
		t.Errorf("MaxDroneSpeedMPS = %v, want 44.704", MaxDroneSpeedMPS)
	}
}
