package auditor

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

// Errors of the §VII-A1 alternative-envelope endpoints.
var (
	// ErrUnknownSession is returned when a MAC PoA names a session the
	// server never established.
	ErrUnknownSession = errors.New("auditor: unknown session id")
)

var _ protocol.ModesAPI = (*Server)(nil)

// SubmitBatchPoA verifies a batch-signed trace (§VII-A1b): one TEE
// signature covers the canonical encoding of the whole sample series.
func (s *Server) SubmitBatchPoA(req protocol.SubmitBatchPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.SubmitBatchPoACtx(context.Background(), req)
}

// SubmitBatchPoACtx is SubmitBatchPoA under a caller context.
func (s *Server) SubmitBatchPoACtx(ctx context.Context, req protocol.SubmitBatchPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.enter(ctx, DoorBatch, protocol.Envelope{DroneID: req.DroneID, Ciphertext: req.EncryptedBatch})
}

// StartSession establishes a §VII-A1a symmetric flight session: the server
// unwraps the TEE-generated HMAC key with its private encryption key and
// remembers it for the flight.
func (s *Server) StartSession(req protocol.StartSessionRequest) (protocol.StartSessionResponse, error) {
	rec, ok := s.drones.get(req.DroneID)
	if !ok {
		return protocol.StartSessionResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, req.DroneID)
	}
	if err := requireDisclosure(rec, poa.DisclosureFull); err != nil {
		return protocol.StartSessionResponse{}, err
	}

	key, err := sigcrypto.Open(s.encKey, req.WrappedKey)
	if err != nil {
		return protocol.StartSessionResponse{}, fmt.Errorf("auditor: unwrap session key: %w", err)
	}
	if len(key) < 16 {
		return protocol.StartSessionResponse{}, fmt.Errorf("auditor: session key too short (%d bytes)", len(key))
	}

	sess := sessionRecord{DroneID: req.DroneID, Key: key}
	id := s.sessions.issue(s.cfg.Clock.Now(), func(string) sessionRecord { return sess })
	return protocol.StartSessionResponse{SessionID: id}, nil
}

// SubmitMACPoA verifies a symmetric-mode PoA: every sample's tag must be a
// valid HMAC under the flight's session key.
func (s *Server) SubmitMACPoA(req protocol.SubmitMACPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.SubmitMACPoACtx(context.Background(), req)
}

// SubmitMACPoACtx is SubmitMACPoA under a caller context.
func (s *Server) SubmitMACPoACtx(ctx context.Context, req protocol.SubmitMACPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.enter(ctx, DoorMAC, protocol.Envelope{DroneID: req.DroneID, SessionID: req.SessionID, Ciphertext: req.EncryptedPoA})
}

// sessionRecord is one established symmetric flight session. Used marks
// a session whose flight has been judged: a session authenticates one
// flight.
type sessionRecord struct {
	DroneID string
	Key     []byte
	Used    bool
}
