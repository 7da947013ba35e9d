// Package zone models no-fly zones and the Auditor's NFZ database:
// registration (circular and polygonal zones), rectangle queries for the
// protocol's zone query/response step, and nearest-zone search with both a
// linear scan and a spatial grid index (the index is the ablation target
// for BenchmarkZoneIndex*).
package zone

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/geo"
)

var (
	// ErrInvalidZone is returned when registering a zone with an illegal
	// centre or non-positive radius.
	ErrInvalidZone = errors.New("zone: invalid zone geometry")
	// ErrNoZones is returned by nearest-zone queries over an empty set.
	ErrNoZones = errors.New("zone: no zones")
)

// NFZ is one registered no-fly zone: z = (id, lat, lon, r).
type NFZ struct {
	ID     string        `json:"id"`
	Circle geo.GeoCircle `json:"circle"`
	Owner  string        `json:"owner,omitempty"` // zone owner identity, for accusations
}

// Registry is the Auditor's NFZ database. It is safe for concurrent use.
// A grid Index is maintained incrementally as zones register, so
// rectangle queries (the auditor's zonesForTrace hot path) are sublinear
// in registry size instead of scanning every zone.
type Registry struct {
	mu    sync.RWMutex
	zones map[string]NFZ
	order []string // registration order, for deterministic listings
	idx   *Index   // position i indexes the zone registered i-th (order[i])
	next  int

	// onAdd, when set, observes every newly registered zone — the
	// auditor's write-ahead log hooks in here so zones registered through
	// the exposed registry are as durable as those registered through the
	// protocol endpoint. Called outside the registry lock.
	onAdd func(NFZ) error
}

// NewRegistry creates an empty NFZ database.
func NewRegistry() *Registry {
	return &Registry{zones: make(map[string]NFZ), idx: NewIndex(nil, 0)}
}

// SetOnAdd installs a commit hook observing every newly registered zone
// (Register and RegisterPolygon; Restore replays already-durable state and
// does not fire it). The hook runs after the zone is filed, with
// the registry lock released, so it may call back into the registry. A
// hook error propagates to the registering caller; the zone stays filed —
// the hook's durable log has fallen behind, which the hook reports
// through its own channel.
func (r *Registry) SetOnAdd(fn func(NFZ) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onAdd = fn
}

// Register adds a circular zone and returns its issued ID (paper §IV-B
// task 1: the Auditor issues id_zone on approval).
func (r *Registry) Register(owner string, c geo.GeoCircle) (string, error) {
	if !c.Valid() {
		return "", fmt.Errorf("%w: %+v", ErrInvalidZone, c)
	}
	r.mu.Lock()
	r.next++
	id := fmt.Sprintf("zone-%04d", r.next)
	z := NFZ{ID: id, Circle: c, Owner: owner}
	r.zones[id] = z
	r.order = append(r.order, id)
	r.idx.Add(c)
	hook := r.onAdd
	r.mu.Unlock()
	if hook != nil {
		if err := hook(z); err != nil {
			return "", err
		}
	}
	return id, nil
}

// Restore re-files one previously registered zone under its issued ID,
// bumping the ID sequence past it. It is idempotent — a zone already
// present (e.g. restored from a snapshot that a replayed WAL record also
// covers) is left untouched — and it does not fire the onAdd hook.
func (r *Registry) Restore(z NFZ) error {
	if !z.Circle.Valid() {
		return fmt.Errorf("%w: %+v", ErrInvalidZone, z.Circle)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.zones[z.ID]; !ok {
		r.zones[z.ID] = z
		r.order = append(r.order, z.ID)
		r.idx.Add(z.Circle)
	}
	var n int
	if _, err := fmt.Sscanf(z.ID, "zone-%04d", &n); err == nil && n > r.next {
		r.next = n
	}
	return nil
}

// RegisterPolygon adds a polygonal zone (paper §VII-B2): the registry
// converts it once to its smallest enclosing circle. vertices are local
// plane coordinates relative to the given projection.
func (r *Registry) RegisterPolygon(owner string, pr *geo.Projection, pg geo.Polygon) (string, error) {
	c, err := pg.EnclosingCircle()
	if err != nil {
		return "", fmt.Errorf("register polygon: %w", err)
	}
	return r.Register(owner, geo.GeoCircle{Center: pr.ToLatLon(c.Center), R: c.R})
}

// Get returns the zone with the given ID.
func (r *Registry) Get(id string) (NFZ, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	z, ok := r.zones[id]
	return z, ok
}

// Len returns the number of registered zones.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.zones)
}

// All returns every zone in registration order.
func (r *Registry) All() []NFZ {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]NFZ, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.zones[id])
	}
	return out
}

// QueryRect returns the zones relevant to a navigation rectangle: every
// zone whose boundary reaches into the rectangle. The rectangle is
// expanded by each zone's radius so zones centred outside but overlapping
// the area are included (the drone must plan around those too). The
// lookup goes through the incrementally maintained grid index, so its
// cost scales with the zones near the rectangle, not the registry size.
func (r *Registry) QueryRect(rect geo.Rect) []NFZ {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []NFZ
	for _, pos := range r.idx.QueryRect(rect) {
		out = append(out, r.zones[r.order[pos]])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// QueryRectLinear is the historical O(n) scan, kept as the equivalence
// oracle for tests and the ablation baseline for BenchmarkZoneQueryRect*;
// production callers use QueryRect.
func (r *Registry) QueryRectLinear(rect geo.Rect) []NFZ {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []NFZ
	for _, id := range r.order {
		z := r.zones[id]
		if rect.Expand(z.Circle.R).Contains(z.Circle.Center) {
			out = append(out, z)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Circles extracts the bare geometry from a zone list, in order.
func Circles(zs []NFZ) []geo.GeoCircle {
	out := make([]geo.GeoCircle, len(zs))
	for i, z := range zs {
		out[i] = z.Circle
	}
	return out
}

// NearestLinear scans all zones for the one whose boundary is closest to p
// (the baseline the grid index is benchmarked against). Returns the zone
// and the signed boundary distance.
func NearestLinear(zs []geo.GeoCircle, p geo.LatLon) (int, float64, error) {
	if len(zs) == 0 {
		return 0, 0, ErrNoZones
	}
	bestIdx, bestDist := -1, 0.0
	for i, z := range zs {
		d := z.BoundaryDistMeters(p)
		if bestIdx < 0 || d < bestDist {
			bestIdx, bestDist = i, d
		}
	}
	return bestIdx, bestDist, nil
}
