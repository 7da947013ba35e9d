package sigcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// The envelope every drone-to-Auditor secret travels in: a fresh content
// key wrapped once with RSA-OAEP-SHA256, the body under AES-256-GCM with
// the header as associated data.
//
//	version(1B)=0x01 | wrapped key (key.Size() B) | nonce(12B) | ciphertext+tag
//
// The paper's Adapter encrypts with RSAES-PKCS1-v1.5; chunking a ~45 KB
// PoA through it costs one private-key operation per 117 bytes on the
// Auditor and offers a padding oracle. One OAEP unwrap per envelope does
// neither (DESIGN.md §1, §9).
const (
	envelopeVersion = 0x01
	contentKeyBytes = 32
	gcmNonceBytes   = 12
	gcmTagBytes     = 16

	// minEnvelopeKeyBytes is the smallest RSA modulus OAEP-SHA256 can wrap
	// a content key under: 32 + 2·32 + 2 bytes, i.e. 784 bits.
	minEnvelopeKeyBytes = contentKeyBytes + 2*sha256.Size + 2
)

var (
	// ErrUndecryptable is the one error Open returns, whatever went wrong:
	// distinguishing failure classes is what a decryption oracle is made of.
	ErrUndecryptable = errors.New("sigcrypto: undecryptable envelope")
	// ErrEnvelopeKeyTooSmall is returned for an RSA key that cannot
	// OAEP-wrap a content key (under 784 bits).
	ErrEnvelopeKeyTooSmall = errors.New("sigcrypto: RSA key too small for the envelope")
)

// CheckEnvelopeKey reports whether pub can receive envelopes, so a
// misconfigured key fails where it is configured instead of on every Seal.
func CheckEnvelopeKey(pub *rsa.PublicKey) error {
	if pub.Size() < minEnvelopeKeyBytes {
		return fmt.Errorf("%w: %d bits, need at least %d", ErrEnvelopeKeyTooSmall, pub.N.BitLen(), 8*minEnvelopeKeyBytes)
	}
	return nil
}

// Seal encrypts msg to the recipient public key. Output length is
// len(msg) + pub.Size() + 29 whatever the body size.
func Seal(random io.Reader, pub *rsa.PublicKey, msg []byte) ([]byte, error) {
	if random == nil {
		random = rand.Reader
	}
	if err := CheckEnvelopeKey(pub); err != nil {
		return nil, err
	}
	key := make([]byte, contentKeyBytes)
	if _, err := io.ReadFull(random, key); err != nil {
		return nil, fmt.Errorf("seal: content key entropy: %w", err)
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), random, pub, key, nil)
	if err != nil {
		return nil, fmt.Errorf("seal: wrap content key: %w", err)
	}
	out := make([]byte, 0, 1+len(wrapped)+gcmNonceBytes+len(msg)+gcmTagBytes)
	out = append(append(out, envelopeVersion), wrapped...)
	nonce, ct, err := SealGCM(random, key, msg, out)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	return append(append(out, nonce...), ct...), nil
}

// Open reverses Seal with the recipient private key. Every failure — short
// input, unknown version, a wrapped key that does not unwrap, a body that
// does not authenticate — is ErrUndecryptable and nothing else.
func Open(key *rsa.PrivateKey, ct []byte) ([]byte, error) {
	body := 1 + key.Size()
	if len(ct) < body+gcmNonceBytes+gcmTagBytes || ct[0] != envelopeVersion {
		return nil, ErrUndecryptable
	}
	contentKey, err := rsa.DecryptOAEP(sha256.New(), nil, key, ct[1:body], nil)
	if err != nil || len(contentKey) != contentKeyBytes {
		return nil, ErrUndecryptable
	}
	msg, err := OpenGCM(contentKey, ct[body:body+gcmNonceBytes], ct[body+gcmNonceBytes:], ct[:body])
	if err != nil {
		return nil, ErrUndecryptable
	}
	return msg, nil
}

// SealGCM encrypts plaintext with AES-GCM under key (16, 24 or 32 bytes)
// and a fresh nonce from random, binding aad.
func SealGCM(random io.Reader, key, plaintext, aad []byte) (nonce, ct []byte, err error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, nil, err
	}
	nonce = make([]byte, gcmNonceBytes)
	if _, err := io.ReadFull(random, nonce); err != nil {
		return nil, nil, fmt.Errorf("nonce: %w", err)
	}
	return nonce, gcm.Seal(nil, nonce, plaintext, aad), nil
}

// OpenGCM reverses SealGCM.
func OpenGCM(key, nonce, ct, aad []byte) ([]byte, error) {
	gcm, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(nonce) != gcmNonceBytes {
		return nil, errors.New("bad nonce size")
	}
	return gcm.Open(nil, nonce, ct, aad)
}

func newGCM(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	return gcm, nil
}
