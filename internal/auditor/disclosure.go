package auditor

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
)

// This file implements the sealed and commit disclosure doors and the
// accusation-time selective-disclosure round-trip (paper §VII-B3 and
// DESIGN.md §13): sealed submissions retain encrypted entries, commit
// submissions retain only a TEE-signed Merkle commitment, and a reveal
// opens exactly the two samples spanning an accused instant.

var (
	// ErrUnknownChallenge is returned for reveals naming a challenge the
	// server never issued (or already settled).
	ErrUnknownChallenge = errors.New("auditor: unknown challenge id")
	// ErrBadReveal is returned when a reveal fails verification: wrong key
	// count, entries that do not open, signatures or Merkle paths that do
	// not verify. The challenge stays open so the operator can retry.
	ErrBadReveal = errors.New("auditor: reveal failed verification")
)

var _ protocol.DisclosureAPI = (*Server)(nil)

// SubmitSealedPoA accepts a sealed-mode PoA: positions encrypted under
// operator-retained one-time keys, timestamps clear. Every check the
// server can run without positions runs here; the proof is retained and
// judged only under accusation.
func (s *Server) SubmitSealedPoA(req protocol.SubmitSealedPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.SubmitSealedPoACtx(context.Background(), req)
}

// SubmitSealedPoACtx is SubmitSealedPoA under a caller context.
func (s *Server) SubmitSealedPoACtx(ctx context.Context, req protocol.SubmitSealedPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.enter(ctx, DoorSealed, req.DroneID, req.EncryptedPoA)
}

// SubmitCommitPoA accepts a commit-mode PoA: the TEE-signed envelope
// carrying the Merkle root, clear timestamps and zone clearance
// predicates — no position anywhere in the payload. Compliance is judged
// from the signed predicates alone.
func (s *Server) SubmitCommitPoA(req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.SubmitCommitPoACtx(context.Background(), req)
}

// SubmitCommitPoACtx is SubmitCommitPoA under a caller context.
func (s *Server) SubmitCommitPoACtx(ctx context.Context, req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.enter(ctx, DoorCommit, req.DroneID, req.EncryptedEnvelope)
}

// Reveal settles a selective-disclosure challenge: the operator discloses
// the two one-time keys (and, in commit mode, the two sealed entries with
// their Merkle authentication paths) for the pair spanning the accused
// instant, and the auditor decides the compliance question from exactly
// those two samples — never seeing any other position.
func (s *Server) Reveal(req protocol.RevealRequest) (protocol.SubmitPoAResponse, error) {
	return s.RevealCtx(context.Background(), req)
}

// RevealCtx is Reveal under a caller context. A settled verdict resolves
// the challenge and lands in the accusation-outcome counter; a failed
// reveal counts bad_reveal and leaves the challenge open for retry.
func (s *Server) RevealCtx(ctx context.Context, req protocol.RevealRequest) (protocol.SubmitPoAResponse, error) {
	start := s.verdictStart()
	rctx, sp := s.cfg.Tracer.StartSpan(ctx, "verify.accusation")
	sp.SetAttr("drone", req.DroneID)
	sp.SetAttr("challenge", req.ChallengeID)
	resp, err := s.reveal(rctx, req)
	sp.SetError(err)
	sp.End()
	switch {
	case err == nil:
		s.countAccusation(string(resp.Verdict))
		s.observeVerdict(DoorAccuse, start)
	case errors.Is(err, ErrBadReveal):
		s.countAccusation("bad_reveal")
	}
	return resp, err
}

func (s *Server) reveal(_ context.Context, req protocol.RevealRequest) (protocol.SubmitPoAResponse, error) {
	ch, ok := s.challenges.get(req.ChallengeID)
	if !ok {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownChallenge, req.ChallengeID)
	}
	if ch.DroneID != req.DroneID {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: challenge belongs to another drone", ErrUnknownChallenge)
	}
	rec, ok := s.disclosures.bySeq(ch.DisclosureSeq)
	if !ok || rec.DroneID != req.DroneID {
		// The retained disclosure aged out of the retention window while
		// the challenge was outstanding.
		s.challenges.remove(req.ChallengeID)
		return protocol.SubmitPoAResponse{}, ErrNoPoA
	}
	z, ok := s.zones.Get(ch.ZoneID)
	if !ok {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownZone, ch.ZoneID)
	}
	drec, ok := s.drones.get(req.DroneID)
	if !ok {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, req.DroneID)
	}

	if len(req.Keys) != 2 {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: got %d keys, want exactly 2", ErrBadReveal, len(req.Keys))
	}
	p := ch.PairIndex

	var e1, e2 privacy.SealedSample
	switch ch.Mode {
	case poa.DisclosureSealed:
		// The auditor retained the entries at submission; the reveal
		// carries keys only.
		if len(req.Entries) != 0 || len(req.Proofs) != 0 {
			return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: sealed challenge takes keys only", ErrBadReveal)
		}
		if p+1 >= len(rec.Entries) {
			return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: challenge pair out of range", ErrBadReveal)
		}
		e1, e2 = rec.Entries[p], rec.Entries[p+1]
	case poa.DisclosureCommit:
		var err error
		if e1, e2, err = s.verifyCommitReveal(rec, req, p); err != nil {
			return protocol.SubmitPoAResponse{}, err
		}
	default:
		return protocol.SubmitPoAResponse{}, fmt.Errorf("auditor: challenge has unknown mode %q", ch.Mode)
	}

	compliant, err := s.judgeReveal(drec, rec, e1, e2, req.Keys[0], req.Keys[1], z.Circle)
	if err != nil {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %v", ErrBadReveal, err)
	}
	// Only a settled verdict closes the challenge; a failed reveal above
	// left it open so the operator can retry.
	s.challenges.remove(req.ChallengeID)
	if compliant {
		return protocol.SubmitPoAResponse{Verdict: protocol.VerdictCompliant}, nil
	}
	return protocol.SubmitPoAResponse{
		Verdict: protocol.VerdictViolation,
		Reason:  "disclosed pair cannot rule out presence in the accused zone",
	}, nil
}

// verifyCommitReveal authenticates a commit-mode reveal against the
// retained commitment: exactly two entries whose public timestamps match
// the committed pair, each hashing to the leaf of a Merkle proof that
// verifies against the signed root at the challenged index over the
// committed leaf count. The explicit Index and Leaves checks matter — a
// proof can be structurally valid under a lied leaf count, so the walk
// alone is not sufficient.
func (s *Server) verifyCommitReveal(rec retainedDisclosure, req protocol.RevealRequest, p int) (privacy.SealedSample, privacy.SealedSample, error) {
	var zero privacy.SealedSample
	bad := func(format string, args ...any) (privacy.SealedSample, privacy.SealedSample, error) {
		return zero, zero, fmt.Errorf("%w: %s", ErrBadReveal, fmt.Sprintf(format, args...))
	}
	if len(req.Entries) != 2 || len(req.Proofs) != 2 {
		return bad("commit challenge needs exactly 2 entries and 2 proofs, got %d/%d", len(req.Entries), len(req.Proofs))
	}
	if p+1 >= len(rec.Times) {
		return bad("challenge pair out of range")
	}
	if len(rec.Root) != 32 {
		return bad("retained root is %d bytes", len(rec.Root))
	}
	var root [32]byte
	copy(root[:], rec.Root)
	for i := 0; i < 2; i++ {
		entry := req.Entries[i]
		if !entry.Time.Equal(rec.Times[p+i]) {
			return bad("entry %d timestamp %v does not match committed %v", i, entry.Time, rec.Times[p+i])
		}
		proof, err := poa.DecodeMerkleProof(req.Proofs[i])
		if err != nil {
			return bad("proof %d: %v", i, err)
		}
		if proof.Index != p+i {
			return bad("proof %d authenticates leaf %d, challenge demands %d", i, proof.Index, p+i)
		}
		if proof.Leaves != len(rec.Times) {
			return bad("proof %d claims %d leaves, commitment has %d", i, proof.Leaves, len(rec.Times))
		}
		leaf := poa.LeafHash(entry.LeafBytes())
		if !bytes.Equal(leaf[:], proof.Leaf[:]) {
			return bad("entry %d does not hash to the proven leaf", i)
		}
		if err := poa.VerifyMerkleProof(root, proof); err != nil {
			return bad("proof %d: %v", i, err)
		}
	}
	return req.Entries[0], req.Entries[1], nil
}

// judgeReveal opens the disclosed pair and decides compliance. Commit
// reveals verify under the envelope's committed signing epoch; sealed
// entries carry no epoch, so the sealed path tries the drone's ring
// newest-first (a flight that straddled a rotation verifies under the
// retired key inside its acceptance window).
func (s *Server) judgeReveal(drec DroneRecord, rec retainedDisclosure, e1, e2 privacy.SealedSample, k1, k2 []byte, z geo.GeoCircle) (bool, error) {
	if rec.Mode == poa.DisclosureCommit {
		pub, err := s.ring(drec).KeyFor(rec.KeyEpoch)
		if err != nil {
			return false, err
		}
		return privacy.JudgeAccusation(e1, e2, k1, k2, pub, z, s.cfg.VMaxMS, s.cfg.Mode)
	}
	var lastErr error
	for i := len(drec.TEEKeys) - 1; i >= 0; i-- {
		pub, err := s.ring(drec).KeyFor(drec.TEEKeys[i].Epoch)
		if err != nil {
			lastErr = err
			continue
		}
		compliant, err := privacy.JudgeAccusation(e1, e2, k1, k2, pub, z, s.cfg.VMaxMS, s.cfg.Mode)
		if err != nil {
			lastErr = err
			continue
		}
		return compliant, nil
	}
	if lastErr == nil {
		lastErr = errors.New("drone has no verification keys")
	}
	return false, lastErr
}
