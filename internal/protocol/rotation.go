package protocol

import (
	"errors"

	"repro/internal/sigcrypto"
)

var (
	// ErrUnknownEpoch is returned when a PoA names a key rotation epoch
	// the Auditor has no record of for that drone.
	ErrUnknownEpoch = errors.New("protocol: unknown key epoch")
	// ErrEpochExpired is returned when a PoA is signed under a retired
	// key whose acceptance window has closed.
	ErrEpochExpired = errors.New("protocol: key epoch outside the rotation acceptance window")
)

// PathRotateKey is the key-rotation endpoint.
const PathRotateKey = "/v1/rotate-key"

// RotateKeyRequest carries a TEE key handover to the Auditor: the new
// verification key at epoch NewEpoch, vouched for by the outgoing key's
// signature inside the handover record.
type RotateKeyRequest struct {
	DroneID  string             `json:"droneId"`
	Handover sigcrypto.Handover `json:"handover"`
}

// RotateKeyResponse acknowledges the now-active key epoch.
type RotateKeyResponse struct {
	Epoch int `json:"epoch"`
}

// RotationAPI is the optional key-rotation surface of an Auditor
// transport. It is separate from API so transports and test doubles that
// predate rotation keep compiling; callers type-assert for it.
type RotationAPI interface {
	RotateKey(req RotateKeyRequest) (RotateKeyResponse, error)
}

// KeyRing resolves a drone's TEE verification key for a key rotation
// epoch. Implementations decide the acceptance policy for retired epochs
// (the Auditor keys it off its injectable clock).
type KeyRing interface {
	KeyFor(epoch int) (sigcrypto.PublicKey, error)
}

// IsVerdictError reports whether a signature-verification error is a
// typed authenticity failure — one that should become a violation verdict
// — rather than an internal fault that must withhold the verdict.
func IsVerdictError(err error) bool {
	return errors.Is(err, ErrBadSignature) ||
		errors.Is(err, sigcrypto.ErrBadSignature) ||
		errors.Is(err, ErrUnknownEpoch) ||
		errors.Is(err, ErrEpochExpired)
}
