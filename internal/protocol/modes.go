package protocol

// This file defines the wire messages for the paper's §VII-A1 alternative
// Proof-of-Alibi envelopes, which address the cost of per-sample
// asymmetric signatures on long keys:
//
//   - batch mode (§VII-A1b): the TEE buffers samples in secure memory and
//     signs the whole trace once at the end of the flight;
//   - symmetric mode (§VII-A1a): the TEE establishes an ephemeral HMAC
//     session key with the Auditor before the flight and tags each sample
//     with it.

// SubmitBatchPoARequest submits a batch-signed trace: the plaintext is the
// canonical batch encoding plus the single TEE signature, encrypted to the
// Auditor like a regular PoA.
type SubmitBatchPoARequest struct {
	DroneID        string `json:"droneId"`
	EncryptedBatch []byte `json:"encryptedBatch"` // sigcrypto.Seal over the JSON BatchPoA
}

// StartSessionRequest establishes a symmetric flight session: WrappedKey
// is the ephemeral HMAC key generated inside the drone TEE, encrypted
// under the Auditor's public key (so only the Auditor and the TEE ever
// hold it — crucially, not the Drone Operator).
type StartSessionRequest struct {
	DroneID    string `json:"droneId"`
	WrappedKey []byte `json:"wrappedKey"`
}

// StartSessionResponse acknowledges the session.
type StartSessionResponse struct {
	SessionID string `json:"sessionId"`
}

// SubmitMACPoARequest submits a symmetric-mode PoA: the samples carry
// HMAC tags under the flight's session key instead of RSA signatures.
type SubmitMACPoARequest struct {
	DroneID      string `json:"droneId"`
	SessionID    string `json:"sessionId"`
	EncryptedPoA []byte `json:"encryptedPoA"` // sigcrypto.Seal over the JSON PoA (tags in Sig fields)
}

// Extended endpoint paths.
const (
	PathSubmitBatchPoA = "/v1/submit-batch-poa"
	PathStartSession   = "/v1/start-session"
	PathSubmitMACPoA   = "/v1/submit-mac-poa"
)

// ModesAPI is the extended Auditor surface for the §VII-A1 envelopes.
// Implemented alongside API by auditor.Server and operator.HTTPAuditor.
type ModesAPI interface {
	SubmitBatchPoA(SubmitBatchPoARequest) (SubmitPoAResponse, error)
	StartSession(StartSessionRequest) (StartSessionResponse, error)
	SubmitMACPoA(SubmitMACPoARequest) (SubmitPoAResponse, error)
}
