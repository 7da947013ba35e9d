// Package sigcrypto wraps the cryptographic primitives the AliDrone
// protocol specifies: RSASSA-PKCS1-v1.5 with SHA-1 for signing GPS samples
// inside the TEE (the paper's TEE_ALG_RSASSA_PKCS1_V1_5_SHA1), the
// envelope that encrypts Proof-of-Alibi records to the Auditor, and the
// HMAC-based symmetric alternative discussed in the paper's §VII-A1a.
//
// SHA-1 and PKCS#1 v1.5 signatures are used deliberately to match the
// paper's implementation; they are what the OP-TEE GlobalPlatform API
// exposed in 2018 and the benchmarks in Table II depend on their cost
// profile. The envelope deliberately departs from the paper's RSAES-
// PKCS1-v1.5 (envelope.go): no reproduced table or figure measures it.
package sigcrypto

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
)

// Key sizes exercised by the paper's benchmarks (Table II).
const (
	// KeySize1024 is the short sign key that sustains 5 Hz sampling.
	KeySize1024 = 1024
	// KeySize2048 is the long sign key that cannot keep up with 5 Hz.
	KeySize2048 = 2048
	// KeySize3072 extends the sweep beyond the paper.
	KeySize3072 = 3072
)

var (
	// ErrBadSignature is returned when signature verification fails.
	ErrBadSignature = errors.New("sigcrypto: signature verification failed")
	// ErrBadKeyEncoding is returned when a serialised key cannot be
	// decoded.
	ErrBadKeyEncoding = errors.New("sigcrypto: bad key encoding")
)

// GenerateKeyPair creates an RSA keypair of the given size using the
// supplied entropy source (crypto/rand.Reader in production, a deterministic
// reader in simulations that need reproducibility).
func GenerateKeyPair(random io.Reader, bits int) (*rsa.PrivateKey, error) {
	if random == nil {
		random = rand.Reader
	}
	key, err := rsa.GenerateKey(random, bits)
	if err != nil {
		return nil, fmt.Errorf("generate rsa-%d key: %w", bits, err)
	}
	return key, nil
}

// MarshalPublicKey serialises an RSA public key to a compact base64 string
// (PKIX DER inside), the form exchanged in protocol messages.
func MarshalPublicKey(pub *rsa.PublicKey) (string, error) {
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return "", fmt.Errorf("marshal public key: %w", err)
	}
	return base64.StdEncoding.EncodeToString(der), nil
}

// UnmarshalPublicKey decodes a public key produced by MarshalPublicKey.
func UnmarshalPublicKey(s string) (*rsa.PublicKey, error) {
	der, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKeyEncoding, err)
	}
	any, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKeyEncoding, err)
	}
	pub, ok := any.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: not an RSA key", ErrBadKeyEncoding)
	}
	return pub, nil
}

// MarshalPrivateKey serialises a private key (PKCS#8 DER, base64). Used
// only for persisting simulated manufacturer key material; the TEE vault
// never exposes it over the protocol.
func MarshalPrivateKey(key *rsa.PrivateKey) (string, error) {
	der, err := x509.MarshalPKCS8PrivateKey(key)
	if err != nil {
		return "", fmt.Errorf("marshal private key: %w", err)
	}
	return base64.StdEncoding.EncodeToString(der), nil
}

// UnmarshalPrivateKey decodes a key produced by MarshalPrivateKey.
func UnmarshalPrivateKey(s string) (*rsa.PrivateKey, error) {
	der, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKeyEncoding, err)
	}
	any, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKeyEncoding, err)
	}
	key, ok := any.(*rsa.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("%w: not an RSA key", ErrBadKeyEncoding)
	}
	return key, nil
}
