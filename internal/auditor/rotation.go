package auditor

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

// DefaultRotationWindow is the acceptance window for PoAs signed under a
// retired key epoch when Config.RotationWindow is zero: long enough for a
// flight that straddled a rotation to land and submit, short enough that a
// stolen retired key goes stale quickly.
const DefaultRotationWindow = 15 * time.Minute

// TEEKey is one entry in a drone's TEE key ring: the verification key of
// one rotation epoch. RetiredAt is zero while the key is active and set to
// the Auditor-clock instant the key was rotated out; retired keys verify
// PoAs only inside the rotation acceptance window.
type TEEKey struct {
	Pub       sigcrypto.PublicKey
	Epoch     int
	RetiredAt time.Time
}

// ActiveKey returns the newest (active) key of the ring. Records always
// hold at least one key.
func (r DroneRecord) ActiveKey() TEEKey {
	if len(r.TEEKeys) == 0 {
		return TEEKey{}
	}
	return r.TEEKeys[len(r.TEEKeys)-1]
}

// droneKeyRing is the protocol.KeyRing view of a record's key list, frozen
// at the submission's admission instant so one submission sees one
// consistent acceptance decision per epoch.
type droneKeyRing struct {
	keys   []TEEKey
	now    time.Time
	window time.Duration
}

// KeyFor implements protocol.KeyRing.
func (r droneKeyRing) KeyFor(epoch int) (sigcrypto.PublicKey, error) {
	for _, k := range r.keys {
		if k.Epoch != epoch {
			continue
		}
		if !k.RetiredAt.IsZero() && r.now.After(k.RetiredAt.Add(r.window)) {
			return nil, fmt.Errorf("%w: epoch %d retired at %s", protocol.ErrEpochExpired,
				epoch, k.RetiredAt.UTC().Format(time.RFC3339))
		}
		return k.Pub, nil
	}
	return nil, fmt.Errorf("%w: %d", protocol.ErrUnknownEpoch, epoch)
}

// ring builds the key-ring view of a drone record against the server's
// injectable clock.
func (s *Server) ring(rec DroneRecord) protocol.KeyRing {
	return droneKeyRing{keys: rec.TEEKeys, now: s.cfg.Clock.Now(), window: s.rotationWindow()}
}

func (s *Server) rotationWindow() time.Duration {
	if s.cfg.RotationWindow != 0 {
		return s.cfg.RotationWindow
	}
	return DefaultRotationWindow
}

// RotateKey accepts a TEE key handover: the drone's next verification key,
// vouched for by the outgoing key's signature. See RotateKeyCtx.
func (s *Server) RotateKey(req protocol.RotateKeyRequest) (protocol.RotateKeyResponse, error) {
	return s.RotateKeyCtx(context.Background(), req)
}

// RotateKeyCtx validates and applies a key rotation: the handover must
// name the requesting drone, succeed the currently active epoch, keep the
// negotiated suite, and verify under the outgoing (active) key. On success
// the old key enters its acceptance window and the new key becomes active,
// durably (WAL record recKeyRotated).
func (s *Server) RotateKeyCtx(ctx context.Context, req protocol.RotateKeyRequest) (protocol.RotateKeyResponse, error) {
	rec, ok := s.drones.get(req.DroneID)
	if !ok {
		return protocol.RotateKeyResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, req.DroneID)
	}
	h := req.Handover
	if h.DroneID != req.DroneID {
		return protocol.RotateKeyResponse{}, fmt.Errorf("%w: handover names %q, request names %q",
			sigcrypto.ErrBadHandover, h.DroneID, req.DroneID)
	}
	active := rec.ActiveKey()
	if h.OldEpoch != active.Epoch {
		return protocol.RotateKeyResponse{}, fmt.Errorf("%w: outgoing epoch %d is not the active epoch %d",
			sigcrypto.ErrBadHandover, h.OldEpoch, active.Epoch)
	}
	newPub, err := sigcrypto.ParsePublicKey(h.NewPub)
	if err != nil {
		return protocol.RotateKeyResponse{}, fmt.Errorf("%w: new key: %v", sigcrypto.ErrBadHandover, err)
	}
	if newPub.SuiteID() != rec.Suite {
		return protocol.RotateKeyResponse{}, fmt.Errorf("%w: rotation changes suite from %s to %s",
			sigcrypto.ErrBadHandover, rec.Suite, newPub.SuiteID())
	}
	if err := sigcrypto.VerifyHandover(h, active.Pub); err != nil {
		return protocol.RotateKeyResponse{}, err
	}
	now := s.cfg.Clock.Now()
	// The epoch check repeats under the store lock, so two racing
	// rotations cannot both succeed off the same outgoing epoch.
	if _, err := s.drones.update(req.DroneID, func(rec DroneRecord) (DroneRecord, error) {
		if rec.ActiveKey().Epoch != h.OldEpoch {
			return rec, fmt.Errorf("%w: outgoing epoch %d is not active", sigcrypto.ErrBadHandover, h.OldEpoch)
		}
		return rec.rotated(TEEKey{Pub: newPub, Epoch: h.NewEpoch}, now), nil
	}); err != nil {
		return protocol.RotateKeyResponse{}, err
	}
	if err := s.wal(ctx, recKeyRotated, walRotation{
		DroneID:   req.DroneID,
		OldEpoch:  h.OldEpoch,
		NewEpoch:  h.NewEpoch,
		NewPub:    h.NewPub,
		RetiredAt: now,
	}); err != nil {
		return protocol.RotateKeyResponse{}, err
	}
	s.cfg.Metrics.Counter(obs.L(MetricKeyRotationsTotal, "suite", rec.Suite)).Inc()
	return protocol.RotateKeyResponse{Epoch: h.NewEpoch}, nil
}

// rotated returns the record with its active key retired at retiredAt and
// newKey appended as the successor. The ring is copied, never edited in
// place: concurrent readers hold the old record and must not see a
// half-updated ring.
func (r DroneRecord) rotated(newKey TEEKey, retiredAt time.Time) DroneRecord {
	keys := make([]TEEKey, len(r.TEEKeys), len(r.TEEKeys)+1)
	copy(keys, r.TEEKeys)
	keys[len(keys)-1].RetiredAt = retiredAt
	r.TEEKeys = append(keys, newKey)
	return r
}
