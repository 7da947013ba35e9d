package trace

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geo"
)

// AirportConfig parameterises the airport field study (paper §VI-A2):
// a single large no-fly zone around an airport, with the vehicle starting
// just outside the boundary and driving away.
type AirportConfig struct {
	Airport      geo.LatLon    // zone centre
	RadiusMeters float64       // NFZ radius; FAA rule is 5 miles
	StartOutside float64       // initial distance outside the boundary (paper: ~30 ft)
	DriveAway    float64       // distance driven away from the zone (paper: ~3 mi)
	Duration     time.Duration // drive time (paper: 12 min)
	BearingDeg   float64       // outbound direction
	Start        time.Time     // departure time
}

// DefaultAirportConfig returns the configuration matching the paper's
// numbers, departing at t0.
func DefaultAirportConfig(t0 time.Time) AirportConfig {
	return AirportConfig{
		Airport:      geo.LatLon{Lat: 40.0392, Lon: -88.2781}, // Willard-airport-like location
		RadiusMeters: geo.MilesToMeters(5),
		StartOutside: geo.FeetToMeters(30),
		DriveAway:    geo.MilesToMeters(3),
		Duration:     12 * time.Minute,
		BearingDeg:   80,
		Start:        t0,
	}
}

// Scenario bundles a generated route with the no-fly zones in force during
// it — everything a field-study experiment needs.
type Scenario struct {
	Name  string
	Route *Route
	Zones []geo.GeoCircle
}

// NewAirportScenario builds the airport drive-away scenario.
func NewAirportScenario(cfg AirportConfig) (*Scenario, error) {
	if cfg.RadiusMeters <= 0 || cfg.DriveAway <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: airport config has non-positive geometry: %+v", cfg)
	}
	zone := geo.GeoCircle{Center: cfg.Airport, R: cfg.RadiusMeters}
	start := cfg.Airport.Offset(cfg.BearingDeg, cfg.RadiusMeters+cfg.StartOutside)
	speed := cfg.DriveAway / cfg.Duration.Seconds()
	route, err := ConstantSpeedLine(start, cfg.BearingDeg, speed, cfg.Start, cfg.Duration)
	if err != nil {
		return nil, fmt.Errorf("airport route: %w", err)
	}
	return &Scenario{Name: "airport", Route: route, Zones: []geo.GeoCircle{zone}}, nil
}

// ResidentialConfig parameterises the residential field study (paper
// §VI-A3): a ~1 mile drive through a county road lined with small no-fly
// zones over the houses.
type ResidentialConfig struct {
	RoadStart  geo.LatLon    // beginning of the drive (point A in Fig 7)
	BearingDeg float64       // road direction
	LengthM    float64       // drive length (paper: ~1 mile)
	Duration   time.Duration // drive time (Fig 8 spans ~150 s)
	Start      time.Time     // departure time
	ZoneRadius float64       // house NFZ radius (paper: 20 ft)
	NumZones   int           // total house NFZs (paper: 94)
	Seed       int64         // layout randomness seed
}

// DefaultResidentialConfig returns the configuration matching the paper's
// numbers, departing at t0.
func DefaultResidentialConfig(t0 time.Time) ResidentialConfig {
	return ResidentialConfig{
		RoadStart:  geo.LatLon{Lat: 40.1106, Lon: -88.2073},
		BearingDeg: 10,
		LengthM:    geo.MilesToMeters(1),
		Duration:   155 * time.Second,
		Start:      t0,
		ZoneRadius: geo.FeetToMeters(20),
		NumZones:   94,
		Seed:       2018,
	}
}

// NewResidentialScenario builds the residential drive-through: the first
// ~40% of the road is a sparse neighbourhood (nearest NFZ boundary 50 to
// 100 ft away), the rest a dense one (20 to 70 ft), with a single closest
// approach of 21 ft — the profile of the paper's Fig 8-(a).
func NewResidentialScenario(cfg ResidentialConfig) (*Scenario, error) {
	if cfg.NumZones < 3 {
		return nil, fmt.Errorf("trace: residential scenario needs >= 3 zones, got %d", cfg.NumZones)
	}
	if cfg.LengthM <= 0 || cfg.Duration <= 0 || cfg.ZoneRadius <= 0 {
		return nil, fmt.Errorf("trace: residential config has non-positive geometry: %+v", cfg)
	}

	speed := cfg.LengthM / cfg.Duration.Seconds()
	route, err := ConstantSpeedLine(cfg.RoadStart, cfg.BearingDeg, speed, cfg.Start, cfg.Duration)
	if err != nil {
		return nil, fmt.Errorf("residential route: %w", err)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	sparseEnd := 0.4 * cfg.LengthM

	// Budget the zones: roughly 20% of houses in the sparse section, the
	// rest dense, one reserved for the 21 ft closest approach.
	sparseCount := cfg.NumZones / 5
	denseCount := cfg.NumZones - sparseCount - 1

	zones := make([]geo.GeoCircle, 0, cfg.NumZones)
	side := 1.0

	// Sparse section: boundary distances 50-100 ft.
	for i := 0; i < sparseCount; i++ {
		along := (float64(i) + rng.Float64()*0.8) / float64(sparseCount) * sparseEnd
		boundary := geo.FeetToMeters(50 + rng.Float64()*50)
		zones = append(zones, houseZone(cfg, along, side*(boundary+cfg.ZoneRadius)))
		side = -side
	}

	// Dense section: boundary distances 24-70 ft.
	for i := 0; i < denseCount; i++ {
		along := sparseEnd + (float64(i)+rng.Float64()*0.8)/float64(denseCount)*(cfg.LengthM-sparseEnd)
		boundary := geo.FeetToMeters(24 + rng.Float64()*46)
		zones = append(zones, houseZone(cfg, along, side*(boundary+cfg.ZoneRadius)))
		side = -side
	}

	// The single closest approach at 21 ft, three quarters down the road.
	zones = append(zones, houseZone(cfg, 0.75*cfg.LengthM, geo.FeetToMeters(21)+cfg.ZoneRadius))

	return &Scenario{Name: "residential", Route: route, Zones: zones}, nil
}

// houseZone places a house NFZ at the given distance along the road and
// signed lateral offset (metres; positive = right of travel direction).
func houseZone(cfg ResidentialConfig, alongM, lateralM float64) geo.GeoCircle {
	onRoad := cfg.RoadStart.Offset(cfg.BearingDeg, alongM)
	lateralBearing := cfg.BearingDeg + 90
	if lateralM < 0 {
		lateralBearing = cfg.BearingDeg - 90
		lateralM = -lateralM
	}
	return geo.GeoCircle{Center: onRoad.Offset(lateralBearing, lateralM), R: cfg.ZoneRadius}
}
