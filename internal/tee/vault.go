package tee

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/sigcrypto"
)

// KeyVault holds the device's TEE keypair T = (T+, T-). The private key is
// an unexported field: only code in this package (the trusted applications)
// can reach it, modelling TrustZone's hardware isolation. The normal world
// sees only Sign results and the public verification key.
//
// The vault also owns the key rotation state: the current epoch starts at
// zero (the manufacture-time key) and increments on every rotate. Rotation
// happens entirely inside the secure world — the outgoing private key signs
// the handover record for its successor and is then destroyed.
type KeyVault struct {
	mu      sync.Mutex
	random  io.Reader
	suite   sigcrypto.Suite
	signKey sigcrypto.PrivateKey
	epoch   int
}

// ManufactureSuiteVault generates a TEE keypair under a named signature
// suite ("rsa1024", "rsa2048", "ed25519", ...), as done by the hardware
// manufacturer before the device is merchandised (paper §IV-B step 0).
func ManufactureSuiteVault(random io.Reader, suiteID string) (*KeyVault, error) {
	suite, err := sigcrypto.SuiteByID(suiteID)
	if err != nil {
		return nil, fmt.Errorf("manufacture vault: %w", err)
	}
	key, err := suite.GenerateKey(random)
	if err != nil {
		return nil, fmt.Errorf("manufacture vault: %w", err)
	}
	return &KeyVault{random: random, suite: suite, signKey: key}, nil
}

// SuiteKey returns the current verification key under the suite interface.
func (v *KeyVault) SuiteKey() sigcrypto.PublicKey {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.signKey.Public()
}

// SuiteID names the vault's signature suite.
func (v *KeyVault) SuiteID() string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.signKey.SuiteID()
}

// Epoch returns the current key rotation epoch (zero until the first
// rotate).
func (v *KeyVault) Epoch() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

// sign computes the TEE signature over msg and reports the key epoch it was
// produced under. Unexported: callable only from trusted applications
// within this package.
func (v *KeyVault) sign(msg []byte) ([]byte, int, error) {
	v.mu.Lock()
	key, epoch := v.signKey, v.epoch
	v.mu.Unlock()
	sig, err := key.Sign(msg)
	if err != nil {
		return nil, 0, fmt.Errorf("vault sign: %w", err)
	}
	return sig, epoch, nil
}

// rotate generates a successor keypair under the same suite, signs the
// handover record with the outgoing key, and atomically switches to the
// new key at epoch+1. Unexported for the same reason as sign: rotation is
// a TA command, never a normal-world function call.
func (v *KeyVault) rotate(droneID string, now time.Time) (sigcrypto.Handover, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	next, err := v.suite.GenerateKey(v.random)
	if err != nil {
		return sigcrypto.Handover{}, fmt.Errorf("vault rotate: %w", err)
	}
	newPub, err := next.Public().Marshal()
	if err != nil {
		return sigcrypto.Handover{}, fmt.Errorf("vault rotate: %w", err)
	}
	h := sigcrypto.Handover{
		DroneID:  droneID,
		OldEpoch: v.epoch,
		NewEpoch: v.epoch + 1,
		NewPub:   newPub,
		At:       now,
	}
	if err := sigcrypto.SignHandover(&h, v.signKey); err != nil {
		return sigcrypto.Handover{}, fmt.Errorf("vault rotate: %w", err)
	}
	v.signKey = next
	v.epoch++
	return h, nil
}
