package auditor

import (
	"context"
	"fmt"

	"repro/internal/poa"
)

// This file adds the paper's §VII-B1 3-D physical model to the server:
// Zone Owners may register *cylindrical* no-fly regions (lat, lon, radius,
// altitude band), and submitted traces — whose samples carry the altitude
// from the $GPGGA sentences — are additionally verified against them with
// the travel-ellipsoid test.
//
// Samples without altitude information (alt = 0) are treated as flying at
// ground level, which is the conservative choice: a cylinder anchored at
// the ground then constrains them exactly like a 2-D zone would.

// RegisterZone3D registers a cylindrical no-fly region and returns its
// issued ID.
func (s *Server) RegisterZone3D(owner string, z poa.CylinderZone) (string, error) {
	if !z.Center.Valid() || z.R <= 0 || z.AltMax < z.AltMin {
		return "", fmt.Errorf("%w: %+v", ErrInvalidCylinder, z)
	}
	id := s.zones3D.issue(s.cfg.Clock.Now(), func(id string) cylinderRecord {
		return cylinderRecord{ID: id, Owner: owner, Zone: z}
	})
	if err := s.wal(context.Background(), recZone3DRegistered, cylinderRecord{ID: id, Owner: owner, Zone: z}); err != nil {
		return "", err
	}
	return id, nil
}

// Zones3D returns the bare geometry of every registered cylindrical zone
// (the verification path wants no IDs or owners).
func (s *Server) Zones3D() []poa.CylinderZone {
	recs := s.zones3D.all()
	out := make([]poa.CylinderZone, len(recs))
	for i, r := range recs {
		out[i] = r.Zone
	}
	return out
}

// cylinderRecord is one registered 3-D zone, and its own
// recZone3DRegistered payload.
type cylinderRecord struct {
	ID    string
	Owner string
	Zone  poa.CylinderZone
}
