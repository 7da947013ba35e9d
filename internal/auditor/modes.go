package auditor

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/auditor/pipeline"
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
	return s.enter(ctx, DoorBatch, req.DroneID, req.EncryptedBatch)
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
	start := s.verdictStart()
	resp, err := s.submitMACPoA(ctx, req)
	if err == nil {
		s.countVerdict(resp)
		s.observeVerdict(DoorMAC, start)
	}
	return resp, err
}

func (s *Server) submitMACPoA(ctx context.Context, req protocol.SubmitMACPoARequest) (protocol.SubmitPoAResponse, error) {
	rec, droneKnown := s.drones.get(req.DroneID)
	sess, sessKnown := s.sessions.get(req.SessionID)
	if !droneKnown {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, req.DroneID)
	}
	if err := requireDisclosure(rec, poa.DisclosureFull); err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	if !sessKnown {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownSession, req.SessionID)
	}
	if sess.DroneID != req.DroneID {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: session belongs to another drone", ErrUnknownSession)
	}
	if err := s.admission.Acquire(ctx, req.DroneID); err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	defer s.admission.Release()
	sub := &pipeline.Submission{
		DroneID:    req.DroneID,
		Ciphertext: req.EncryptedPoA,
		MACKey:     sess.Key,
	}
	return s.runSubmission(ctx, sub, s.seqMAC)
}

// sessionRecord is one established symmetric flight session.
type sessionRecord struct {
	DroneID string
	Key     []byte
}
