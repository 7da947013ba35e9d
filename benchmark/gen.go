package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"time"
)

// The generator: everything a workload feeds the program is derived here
// from the seed and nothing else. The types are the harness's own so the
// generator has no view of the program; sut.go converts them at the door.

type latLon struct{ Lat, Lon float64 }

type circle struct {
	Center latLon
	R      float64
}

type rect struct{ MinLat, MinLon, MaxLat, MaxLon float64 }

const (
	metersPerFoot = 0.3048
	metersPerMile = 1609.344

	clientDrones = 4 // drones owned by one ground station

	// Street geometry: a 60 s flight at ~10 m/s over a 5 Hz receiver. House
	// zones every ~30 m on both sides, staggered, boundary 14-16 m off the
	// centreline: the adaptive sampler then signs every other GPS update
	// (~150 samples) whatever the seed, so seeds vary the inputs without
	// varying how much work a flight is.
	streetFlight     = 60 * time.Second
	streetSpeedMS    = 10.0
	streetRateHz     = 5.0
	streetLengthM    = 720.0
	houseRadiusM     = 20 * metersPerFoot
	housePitchM      = 30.0
	houseJitterM     = 3.0
	houseLateralMinM = 20.0
	houseLateralMaxM = 22.0

	// City geometry: 2,000 property zones, one to a block of a 50 x 40
	// lattice over a 10 km square and seeded within it, so every seed's city
	// is equally dense and a rectangle query's work depends on the
	// rectangle's size, not on the seed. One 5-mile airport zone 20 km east
	// of it, flights leaving the airport boundary eastwards so only the
	// airport zone constrains them. Flights are short
	// on purpose: every GPS update costs the drone's sampler a nearest-zone
	// ring search of ~0.4 ms against a 5-mile zone (the paper's 12-minute
	// drive is 0.55 s of it), which would drown the read path this workload
	// is here to watch.
	cityCols         = 50
	cityRows         = 40
	cityZones        = cityCols * cityRows
	citySpanM        = 10000.0
	queryHalfMinM    = 250.0  // pooled query rectangles: half side from 250 m ...
	queryHalfMaxM    = 1000.0 // ... to 1 km, in equal steps across the pool
	airportRadiusM   = 5 * metersPerMile
	airportEastM     = 20000.0
	airportStartOutM = 80 * metersPerFoot // at 1 Hz the first pair is only sufficient from ~20 m out
	sparseFlight     = 90 * time.Second
	accusedFlight    = 20 * time.Second        // preloaded flights only need spanning pairs
	sparseSpeedMS    = 3 * metersPerMile / 720 // the paper's 3 miles in 12 minutes
	sparseRateHz     = 1.0
	accusedDrones    = 8
	accusedFlights   = 20
	cycleReads       = 16 // zone queries, and accusations, per city flight
	zoneQueryPool    = 64
)

var (
	streetsOrigin = latLon{Lat: 40.1106, Lon: -88.2073}
	cityCentre    = latLon{Lat: 39.60, Lon: -88.90}
	epoch         = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
)

// subSeed derives an independent stream seed from the run seed and a path
// of indices (splitmix64 finaliser), so flight k of drone d is a pure
// function of the seed however many flights the window reaches.
func subSeed(seed int64, path ...int64) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}

func rngFor(seed int64, path ...int64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, path...)))
}

// dronePlan is one drone of the fleet: its TEE suite, key seed and the
// ground it flies over.
type dronePlan struct {
	Suite   string
	KeySeed int64
	// Street workloads: the street's origin, direction and house zones.
	Origin     latLon
	BearingDeg float64
	Houses     []circle
}

// flightSpec is one flight's trajectory: a straight constant-speed line.
type flightSpec struct {
	Start      latLon
	BearingDeg float64
	SpeedMS    float64
	T0         time.Time
	Dur        time.Duration
	RateHz     float64
}

// accusation is one pooled Accuse call and its known outcome.
type accusation struct {
	Drone     int // index into plan.Accused
	At        time.Time
	Compliant bool // false: the instant lies outside every flight (404)
}

// plan is a workload's complete generated input.
type plan struct {
	Workload string
	Seed     int64
	Clients  [][]dronePlan // [client][drone]

	// city-audit-mixed only.
	Airport     circle
	CityZones   []circle
	Accused     []dronePlan
	QueryRects  []rect
	Accusations []accusation
	// Per client, the order in which it walks the two pools: a window of a
	// few cycles then asks every pooled question equally often.
	queryOrder, accuseOrder [][]int
}

func newPlan(workload string, seed int64, clients int) *plan {
	p := &plan{Workload: workload, Seed: seed, Clients: make([][]dronePlan, clients)}
	city := workload == wlCity
	for c := range p.Clients {
		for d := 0; d < clientDrones; d++ {
			p.Clients[c] = append(p.Clients[c], p.newDrone(c, d, city))
		}
	}
	if city {
		p.genCity()
	}
	return p
}

func (p *plan) newDrone(client, drone int, city bool) dronePlan {
	rng := rngFor(p.Seed, 1, int64(client), int64(drone))
	dp := dronePlan{KeySeed: rng.Int63() | 1}
	switch p.Workload {
	case wlFullHTTP:
		dp.Suite = suiteRSA1024
	case wlCity:
		// A mixed fleet: suites alternate across the station's drones.
		dp.Suite = []string{suiteRSA1024, suiteEd25519}[drone%2]
	default:
		dp.Suite = suiteEd25519
	}
	if city {
		return dp
	}
	// Streets sit on a 5 km lattice so no flight's area reaches another
	// street's zones.
	slot := client*clientDrones + drone
	dp.Origin = offset(offset(streetsOrigin, 90, 5000*float64(slot%4)+rng.Float64()*1000),
		0, 5000*float64(slot/4)+rng.Float64()*1000)
	dp.BearingDeg = rng.Float64() * 360
	for along, side := 0.0, 1.0; along <= streetLengthM; along, side = along+housePitchM/2, -side {
		a := along + (rng.Float64()*2-1)*houseJitterM
		lateral := houseLateralMinM + rng.Float64()*(houseLateralMaxM-houseLateralMinM)
		on := offset(dp.Origin, dp.BearingDeg, a)
		dp.Houses = append(dp.Houses, circle{Center: offset(on, dp.BearingDeg+side*90, lateral), R: houseRadiusM})
	}
	return dp
}

func (p *plan) genCity() {
	rng := rngFor(p.Seed, 2)
	p.Airport = circle{Center: offset(cityCentre, 90, airportEastM), R: airportRadiusM}
	corner := offset(offset(cityCentre, 270, citySpanM/2), 180, citySpanM/2)
	blockE, blockN := citySpanM/cityCols, citySpanM/cityRows
	for i := 0; i < cityZones; i++ {
		east := (float64(i%cityCols) + 0.1 + 0.8*rng.Float64()) * blockE
		north := (float64(i/cityCols) + 0.1 + 0.8*rng.Float64()) * blockN
		p.CityZones = append(p.CityZones, circle{Center: offset(offset(corner, 90, east), 0, north), R: (20 + rng.Float64()*40) * metersPerFoot})
	}
	for i := 0; i < accusedDrones; i++ {
		p.Accused = append(p.Accused, dronePlan{Suite: suiteEd25519, KeySeed: rng.Int63() | 1})
	}
	for i := 0; i < zoneQueryPool; i++ {
		// Wholly inside the city, so the edge does not thin an answer out.
		half := queryHalfMinM + (queryHalfMaxM-queryHalfMinM)*(float64(i)+0.5)/zoneQueryPool
		c := offset(offset(corner, 90, half+rng.Float64()*(citySpanM-2*half)), 0, half+rng.Float64()*(citySpanM-2*half))
		sw, ne := offset(offset(c, 270, half), 180, half), offset(offset(c, 90, half), 0, half)
		p.QueryRects = append(p.QueryRects, rect{MinLat: sw.Lat, MinLon: sw.Lon, MaxLat: ne.Lat, MaxLon: ne.Lon})
	}
	for d := 0; d < accusedDrones; d++ {
		for f := 0; f < accusedFlights; f++ {
			spec := p.accusedFlight(d, f)
			p.Accusations = append(p.Accusations,
				accusation{Drone: d, Compliant: true,
					At: spec.T0.Add(time.Duration((0.05 + 0.9*rng.Float64()) * float64(spec.Dur))).Truncate(time.Millisecond)},
				// The gap after a flight: no retained pair spans it.
				accusation{Drone: d, At: spec.T0.Add(spec.Dur + time.Minute + time.Duration(rng.Intn(600))*time.Second)})
		}
	}
	for range p.Clients {
		p.queryOrder = append(p.queryOrder, rng.Perm(len(p.QueryRects)))
		p.accuseOrder = append(p.accuseOrder, rng.Perm(len(p.Accusations)))
	}
}

// flight returns flight k of the given drone.
func (p *plan) flight(client, drone, k int) flightSpec {
	rng := rngFor(p.Seed, 3, int64(client), int64(drone), int64(k))
	t0 := epoch.Add(time.Duration(k)*30*time.Minute + time.Duration(rng.Intn(60000))*time.Millisecond)
	if p.Workload == wlCity {
		return sparseSpec(p.Airport, rng, t0, sparseFlight)
	}
	dp := p.Clients[client][drone]
	// Down the centreline, off it by up to a metre, starting somewhere in
	// the first 40 m of the street.
	start := offset(offset(dp.Origin, dp.BearingDeg, rng.Float64()*40), dp.BearingDeg+90, rng.Float64()*2-1)
	return flightSpec{
		Start: start, BearingDeg: dp.BearingDeg, SpeedMS: streetSpeedMS * (0.97 + 0.06*rng.Float64()),
		T0: t0, Dur: streetFlight, RateHz: streetRateHz,
	}
}

// accusedFlight returns preloaded flight f of accused drone d.
func (p *plan) accusedFlight(d, f int) flightSpec {
	rng := rngFor(p.Seed, 4, int64(d), int64(f))
	return sparseSpec(p.Airport, rng, epoch.Add(time.Duration(f)*30*time.Minute), accusedFlight)
}

// sparseSpec is the paper's airport study: start just outside the 5-mile
// boundary and move away from it.
func sparseSpec(airport circle, rng *rand.Rand, t0 time.Time, dur time.Duration) flightSpec {
	bearing := 30 + rng.Float64()*120 // eastwards, away from the city
	return flightSpec{
		Start:      offset(airport.Center, bearing, airport.R+airportStartOutM*(1+0.6*rng.Float64())),
		BearingDeg: bearing, SpeedMS: sparseSpeedMS * (0.97 + 0.06*rng.Float64()),
		T0: t0, Dur: dur, RateHz: sparseRateHz,
	}
}

// approach is the ground every airport flight stays within: two corners of
// a box east of the airport, from its northern to its southern tangent.
func (p *plan) approach() (a, b latLon) {
	c := p.Airport.Center
	return offset(c, 0, airportRadiusM), offset(offset(c, 180, airportRadiusM), 90, airportRadiusM+2000)
}

// probeRects are the rectangles the zone layer is timed on directly: the
// pooled query rectangles, or each street's bounding box.
func (p *plan) probeRects() []rect {
	if p.Workload == wlCity {
		return p.QueryRects
	}
	var out []rect
	for _, cl := range p.Clients {
		for _, dp := range cl {
			r := rect{MinLat: 90, MinLon: 180, MaxLat: -90, MaxLon: -180}
			for _, h := range dp.Houses {
				r.MinLat, r.MaxLat = min(r.MinLat, h.Center.Lat), max(r.MaxLat, h.Center.Lat)
				r.MinLon, r.MaxLon = min(r.MinLon, h.Center.Lon), max(r.MaxLon, h.Center.Lon)
			}
			out = append(out, r)
		}
	}
	return out
}

// cycle returns the pool indices of the zone queries and accusations
// that follow city flight k of a client.
func (p *plan) cycle(client, k int) (queries, accusations [cycleReads]int) {
	qs, as := p.queryOrder[client], p.accuseOrder[client]
	for i := range queries {
		queries[i] = qs[(k*cycleReads+i)%len(qs)]
		accusations[i] = as[(k*cycleReads+i)%len(as)]
	}
	return queries, accusations
}

// digest fingerprints the generated inputs: the plan plus the first
// flights and cycles of every drone, which is what a window consumes.
func (p *plan) digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(p) // plain data: cannot fail
	for c := range p.Clients {
		for d := range p.Clients[c] {
			for k := 0; k < 8; k++ {
				_ = enc.Encode(p.flight(c, d, k))
			}
		}
		if p.Workload == wlCity {
			for k := 0; k < 8; k++ {
				q, a := p.cycle(c, k)
				_ = enc.Encode([2][cycleReads]int{q, a})
			}
		}
	}
	for d := range p.Accused {
		for f := 0; f < accusedFlights; f++ {
			_ = enc.Encode(p.accusedFlight(d, f))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
