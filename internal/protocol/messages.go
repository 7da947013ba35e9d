// Package protocol defines the wire messages exchanged between the Drone
// Operator and the Auditor for the four AliDrone protocol tasks (paper
// §IV-B): drone registration, zone registration, zone query/response and
// Proof-of-Alibi submission. Messages are JSON-encoded, except the
// envelope doors' ciphertexts, which travel raw (see Envelope).
// Signatures cover canonical byte strings defined here so both sides
// agree exactly.
package protocol

import (
	"crypto/rsa"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"repro/internal/geo"
	"repro/internal/sigcrypto"
	"repro/internal/zone"
)

var (
	// ErrBadNonce is returned when a nonce fails to decode or is reused.
	ErrBadNonce = errors.New("protocol: bad or replayed nonce")
	// ErrBadSignature is returned when a message signature fails.
	ErrBadSignature = errors.New("protocol: bad signature")
)

// NonceBytes is the length of the anti-replay nonce in zone queries.
const NonceBytes = 16

// RegisterDroneRequest is protocol task 0: the Drone Operator submits the
// operator verification key D+ and the TEE verification key T+; the
// Auditor issues id_drone.
type RegisterDroneRequest struct {
	OperatorPub string `json:"operatorPub"` // marshalled D+
	TEEPub      string `json:"teePub"`      // marshalled T+
	// Suite names the signature suite T+ belongs to ("rsa2048",
	// "ed25519", ...). Empty means "whatever the key envelope says" —
	// legacy bare-base64 registrations negotiate an RSA suite inferred
	// from the modulus size. When set, it must match the key envelope;
	// the Auditor rejects a mismatch.
	Suite string `json:"suite,omitempty"`
	// Disclosure negotiates the drone's disclosure mode ("full",
	// "sealed", "commit"), like Suite negotiates the signature suite.
	// Empty means full — the original plaintext protocol. The Auditor
	// enforces the registered mode at every submission door.
	Disclosure string `json:"disclosure,omitempty"`
}

// RegisterDroneResponse carries the issued drone identifier.
type RegisterDroneResponse struct {
	DroneID string `json:"droneId"`
}

// RegisterZoneRequest is protocol task 1: a Zone Owner submits the
// coordinates and radius of the property plus a proof of ownership.
type RegisterZoneRequest struct {
	Owner          string        `json:"owner"`
	Zone           geo.GeoCircle `json:"zone"`
	OwnershipProof string        `json:"ownershipProof"`
}

// RegisterZoneResponse carries the issued zone identifier.
type RegisterZoneResponse struct {
	ZoneID string `json:"zoneId"`
}

// RegisterPolygonZoneRequest registers a non-circular no-fly zone (paper
// §VII-B2): the owner describes the property as a polygon; the Auditor
// converts it once, at registration time, to its smallest enclosing circle.
type RegisterPolygonZoneRequest struct {
	Owner          string       `json:"owner"`
	Vertices       []geo.LatLon `json:"vertices"`
	OwnershipProof string       `json:"ownershipProof"`
}

// PathRegisterPolygonZone is the polygonal registration endpoint.
const PathRegisterPolygonZone = "/v1/register-polygon-zone"

// ZoneQueryRequest is protocol tasks 2-3: before flying, the operator asks
// for the NFZs within a rectangular navigation area, authenticating with a
// nonce signed by the drone sign key D-.
type ZoneQueryRequest struct {
	DroneID string   `json:"droneId"`
	Area    geo.Rect `json:"area"`
	Nonce   string   `json:"nonce"` // hex-encoded random nonce
	Sig     []byte   `json:"sig"`   // Sig(nonce, D-)
}

// ZoneQueryResponse lists the zones relevant to the requested area.
type ZoneQueryResponse struct {
	Zones []zone.NFZ `json:"zones"`
}

// SubmitPoARequest is protocol task 4: after the flight the operator
// submits the PoA, encrypted under the Auditor's public encryption key.
type SubmitPoARequest struct {
	DroneID      string `json:"droneId"`
	EncryptedPoA []byte `json:"encryptedPoA"` // sigcrypto.Seal over poa.EncodePoA
}

// Verdict is the Auditor's conclusion about a submitted PoA.
type Verdict string

// Verdicts the Auditor can reach.
const (
	// VerdictCompliant: the PoA verifies and is sufficient for every
	// zone in force — no privacy violation occurred.
	VerdictCompliant Verdict = "compliant"
	// VerdictViolation: the PoA is insufficient, infeasible, or fails
	// authentication — the Auditor initiates punitive measures.
	VerdictViolation Verdict = "violation"
	// VerdictRetained: a sealed-mode submission passed every check the
	// Auditor can run without positions (structure, chronology, replay)
	// and is retained; compliance is only ever decided under accusation.
	VerdictRetained Verdict = "retained"
	// VerdictDisclosureRequired: an accusation landed on a sealed or
	// commit proof; the response carries a DisclosureChallenge and the
	// verdict arrives with the operator's reveal.
	VerdictDisclosureRequired Verdict = "disclosure-required"
)

// SubmitPoAResponse reports the verification outcome.
type SubmitPoAResponse struct {
	Verdict Verdict `json:"verdict"`
	// Reason is a human-readable explanation for a violation verdict.
	Reason string `json:"reason,omitempty"`
	// InsufficientPairs is the count of failed sample pairs, when the
	// verdict was reached by the sufficiency check.
	InsufficientPairs int `json:"insufficientPairs,omitempty"`
	// Challenge carries the selective-disclosure request when the verdict
	// is VerdictDisclosureRequired.
	Challenge *DisclosureChallenge `json:"challenge,omitempty"`
}

// NewNonce draws a fresh hex-encoded nonce.
func NewNonce(random io.Reader) (string, error) {
	buf := make([]byte, NonceBytes)
	if _, err := io.ReadFull(random, buf); err != nil {
		return "", fmt.Errorf("protocol: nonce: %w", err)
	}
	return hex.EncodeToString(buf), nil
}

// nonceSigningBytes is the canonical byte string covered by the zone-query
// signature: the drone ID binds the nonce to the claimed identity.
func nonceSigningBytes(droneID, nonce string) []byte {
	return []byte("ALIDRONE-ZQ|" + droneID + "|" + nonce)
}

// SignZoneQuery fills in the nonce signature of a query using the operator
// sign key D-.
func SignZoneQuery(req *ZoneQueryRequest, operatorKey *rsa.PrivateKey) error {
	if _, err := hex.DecodeString(req.Nonce); err != nil || len(req.Nonce) != 2*NonceBytes {
		return fmt.Errorf("%w: %q", ErrBadNonce, req.Nonce)
	}
	sig, err := sigcrypto.Sign(operatorKey, nonceSigningBytes(req.DroneID, req.Nonce))
	if err != nil {
		return fmt.Errorf("sign zone query: %w", err)
	}
	req.Sig = sig
	return nil
}

// VerifyZoneQuery checks the nonce signature against the registered
// operator verification key D+.
func VerifyZoneQuery(req ZoneQueryRequest, operatorPub *rsa.PublicKey) error {
	if _, err := hex.DecodeString(req.Nonce); err != nil || len(req.Nonce) != 2*NonceBytes {
		return fmt.Errorf("%w: %q", ErrBadNonce, req.Nonce)
	}
	if err := sigcrypto.Verify(operatorPub, nonceSigningBytes(req.DroneID, req.Nonce), req.Sig); err != nil {
		return ErrBadSignature
	}
	return nil
}
