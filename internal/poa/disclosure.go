package poa

import "fmt"

// Disclosure modes name how much of a Proof-of-Alibi the Auditor sees at
// submission time. The mode is negotiated at registration, like a
// signature suite, and every door dispatches on it.
const (
	// DisclosureFull is the original protocol: plaintext signed samples,
	// verified in full at submission.
	DisclosureFull = "full"
	// DisclosureSealed uploads §VII-B3 one-time-key sealed entries;
	// positions open only under accusation, when the operator reveals the
	// two spanning keys.
	DisclosureSealed = "sealed"
	// DisclosureCommit uploads only a TEE-signed Merkle root over sealed
	// entries plus zone-relative clearance predicates; the Auditor judges
	// sufficiency without ever seeing a position, and an accusation
	// triggers a two-leaf selective disclosure.
	DisclosureCommit = "commit"
)

// NormalizeDisclosure maps the empty string to DisclosureFull (drones
// predating the negotiation always flew the plaintext protocol) and
// rejects unknown modes.
func NormalizeDisclosure(mode string) (string, error) {
	switch mode {
	case "", DisclosureFull:
		return DisclosureFull, nil
	case DisclosureSealed, DisclosureCommit:
		return mode, nil
	default:
		return "", fmt.Errorf("poa: unknown disclosure mode %q", mode)
	}
}
