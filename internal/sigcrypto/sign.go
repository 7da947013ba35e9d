package sigcrypto

import (
	"crypto"
	"crypto/hmac"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
)

// Sign produces an RSASSA-PKCS1-v1.5/SHA-1 signature over msg — the
// paper's TEE_ALG_RSASSA_PKCS1_V1_5_SHA1.
func Sign(key *rsa.PrivateKey, msg []byte) ([]byte, error) {
	digest := sha1.Sum(msg)
	sig, err := rsa.SignPKCS1v15(nil, key, crypto.SHA1, digest[:])
	if err != nil {
		return nil, fmt.Errorf("sign: %w", err)
	}
	return sig, nil
}

// Verify checks an RSASSA-PKCS1-v1.5/SHA-1 signature. It returns
// ErrBadSignature on mismatch.
func Verify(pub *rsa.PublicKey, msg, sig []byte) error {
	digest := sha1.Sum(msg)
	if err := rsa.VerifyPKCS1v15(pub, crypto.SHA1, digest[:], sig); err != nil {
		return ErrBadSignature
	}
	return nil
}

// MAC computes an HMAC-SHA256 tag over msg — the symmetric alternative to
// per-sample RSA signatures sketched in the paper's §VII-A1a, where the
// drone TEE and Auditor establish an ephemeral session key before flight.
func MAC(key, msg []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	return m.Sum(nil)
}

// VerifyMAC checks an HMAC-SHA256 tag in constant time.
func VerifyMAC(key, msg, tag []byte) error {
	want := MAC(key, msg)
	if subtle.ConstantTimeCompare(want, tag) != 1 {
		return ErrBadSignature
	}
	return nil
}
