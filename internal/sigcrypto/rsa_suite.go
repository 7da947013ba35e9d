package sigcrypto

import (
	"crypto/rsa"
	"fmt"
	"io"
)

func init() {
	RegisterSuite(rsaSuite{id: SuiteRSA1024, bits: KeySize1024})
	RegisterSuite(rsaSuite{id: SuiteRSA2048, bits: KeySize2048})
	RegisterSuite(rsaSuite{id: SuiteRSA3072, bits: KeySize3072})
}

// RSASuiteID names the RSA suite for a modulus size ("rsa2048" for 2048).
func RSASuiteID(bits int) string { return fmt.Sprintf("rsa%d", bits) }

// rsaSuite is the paper's RSASSA-PKCS1-v1.5/SHA-1 algorithm at one modulus
// size. RSA verification in Go is a couple of modular multiplications, so
// there is no batch equation to exploit; BatchVerify is the reference
// loop.
type rsaSuite struct {
	id   string
	bits int
}

func (s rsaSuite) ID() string { return s.id }

func (s rsaSuite) GenerateKey(random io.Reader) (PrivateKey, error) {
	key, err := GenerateKeyPair(random, s.bits)
	if err != nil {
		return nil, err
	}
	return WrapRSAPrivate(key), nil
}

func (s rsaSuite) ParsePublicKey(body string) (PublicKey, error) {
	pub, err := UnmarshalPublicKey(body)
	if err != nil {
		return nil, err
	}
	if got := pub.N.BitLen(); got != s.bits {
		return nil, fmt.Errorf("%w: suite %s carries a %d-bit key", ErrBadKeyEncoding, s.id, got)
	}
	return WrapRSA(pub), nil
}

func (s rsaSuite) BatchVerify(pub PublicKey, msgs, sigs [][]byte) (int, error) {
	return loopBatchVerify(pub, msgs, sigs)
}

// rsaPublicKey adapts *rsa.PublicKey to the suite PublicKey interface.
type rsaPublicKey struct {
	pub *rsa.PublicKey
}

// WrapRSA adapts an existing RSA verification key to the suite interface.
// Its suite ID follows the modulus size.
func WrapRSA(pub *rsa.PublicKey) PublicKey { return rsaPublicKey{pub: pub} }

func (k rsaPublicKey) SuiteID() string { return RSASuiteID(k.pub.N.BitLen()) }

func (k rsaPublicKey) Verify(msg, sig []byte) error { return Verify(k.pub, msg, sig) }

// Marshal emits the legacy bare-base64 PKIX form, keeping RSA keys
// byte-identical with pre-suite snapshots, WAL records and registrations.
func (k rsaPublicKey) Marshal() (string, error) { return MarshalPublicKey(k.pub) }

func (k rsaPublicKey) Equal(other PublicKey) bool {
	o, ok := other.(rsaPublicKey)
	return ok && k.pub.Equal(o.pub)
}

// rsaPrivateKey adapts *rsa.PrivateKey to the suite PrivateKey interface.
type rsaPrivateKey struct {
	key *rsa.PrivateKey
}

// WrapRSAPrivate adapts an existing RSA signing key to the suite
// interface.
func WrapRSAPrivate(key *rsa.PrivateKey) PrivateKey { return rsaPrivateKey{key: key} }

func (k rsaPrivateKey) SuiteID() string { return RSASuiteID(k.key.N.BitLen()) }

func (k rsaPrivateKey) Sign(msg []byte) ([]byte, error) { return Sign(k.key, msg) }

func (k rsaPrivateKey) Public() PublicKey { return WrapRSA(&k.key.PublicKey) }
