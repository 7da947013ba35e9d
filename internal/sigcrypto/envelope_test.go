package sigcrypto

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"testing"
	"testing/quick"
)

// legacyChunked is the envelope this package wrote before Seal: the body
// cut into RSAES-PKCS1-v1.5 blocks. Open must treat it as undecryptable.
func legacyChunked(t testing.TB, pub *rsa.PublicKey, msg []byte) []byte {
	t.Helper()
	var out []byte
	for chunk := pub.Size() - 11; len(msg) > 0; {
		n := min(chunk, len(msg))
		block, err := rsa.EncryptPKCS1v15(testRand(20), pub, msg[:n])
		if err != nil {
			t.Fatal(err)
		}
		out, msg = append(out, block...), msg[n:]
	}
	return out
}

type tampered struct {
	name string
	ct   []byte
}

// tamperedEnvelopes returns ct damaged once in each of its four regions,
// cut at each region boundary, and replaced by things that never were an
// envelope.
func tamperedEnvelopes(t testing.TB, key *rsa.PrivateKey, ct []byte) []tampered {
	t.Helper()
	k := key.Size()
	flip := func(i int) []byte {
		bad := bytes.Clone(ct)
		bad[i] ^= 1
		return bad
	}
	return []tampered{
		{"flip version", flip(0)},
		{"flip wrapped key", flip(1 + k/2)},
		{"flip nonce", flip(1 + k)},
		{"flip body", flip(1 + k + gcmNonceBytes)},
		{"flip tag", flip(len(ct) - 1)},
		{"empty", nil},
		{"cut after version", ct[:1]},
		{"cut in wrapped key", ct[:1+k/2]},
		{"cut after key", ct[:1+k]},
		{"cut after nonce", ct[:1+k+gcmNonceBytes]},
		{"cut in tag", ct[:len(ct)-1]},
		{"legacy chunked", legacyChunked(t, &key.PublicKey, []byte("proof-of-alibi"))},
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 61, 62, 63, 117, 118, 64 << 10}
	for _, bits := range []int{KeySize1024, KeySize2048, KeySize3072} {
		key, err := GenerateKeyPair(testRand(int64(bits)), bits)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip := func(msg []byte) bool {
			ct, err := Seal(testRand(5), &key.PublicKey, msg)
			if err != nil {
				t.Errorf("rsa-%d, %d B: Seal: %v", bits, len(msg), err)
				return false
			}
			// One wrapped key per envelope: the overhead does not grow
			// with the body.
			if want := len(msg) + key.Size() + 29; len(ct) != want {
				t.Errorf("rsa-%d, %d B: envelope is %d B, want %d", bits, len(msg), len(ct), want)
			}
			pt, err := Open(key, ct)
			return err == nil && bytes.Equal(pt, msg)
		}
		for _, n := range sizes {
			msg := make([]byte, n)
			testRand(int64(n)).Read(msg)
			if !roundTrip(msg) {
				t.Errorf("rsa-%d: %d-byte body does not round-trip", bits, n)
			}
		}
		if err := quick.Check(roundTrip, &quick.Config{MaxCount: 25, Rand: testRand(6)}); err != nil {
			t.Errorf("rsa-%d: %v", bits, err)
		}
	}
}

// TestDecryptErrors: whatever is wrong with an envelope, Open says the same
// thing — the bare sentinel, no wrapped cause to tell failures apart by.
func TestDecryptErrors(t *testing.T) {
	key, err := GenerateKeyPair(testRand(9), KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	eve, err := GenerateKeyPair(testRand(10), KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Seal(testRand(8), &key.PublicKey, bytes.Repeat([]byte("proof-of-alibi "), 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range tamperedEnvelopes(t, key, ct) {
		if _, err := Open(key, bad.ct); err != ErrUndecryptable {
			t.Errorf("%s: err = %v, want exactly ErrUndecryptable", bad.name, err)
		}
	}
	if _, err := Open(eve, ct); err != ErrUndecryptable {
		t.Errorf("wrong recipient: err = %v, want exactly ErrUndecryptable", err)
	}
}

func TestEnvelopeKeyTooSmall(t *testing.T) {
	small, err := GenerateKeyPair(testRand(12), 512)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Seal(testRand(13), &small.PublicKey, []byte("x")); !errors.Is(err, ErrEnvelopeKeyTooSmall) {
		t.Errorf("Seal to a 512-bit key: err = %v, want ErrEnvelopeKeyTooSmall", err)
	}
	if err := CheckEnvelopeKey(&small.PublicKey); !errors.Is(err, ErrEnvelopeKeyTooSmall) {
		t.Errorf("CheckEnvelopeKey(512): err = %v, want ErrEnvelopeKeyTooSmall", err)
	}
	ok, err := GenerateKeyPair(testRand(14), KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEnvelopeKey(&ok.PublicKey); err != nil {
		t.Errorf("CheckEnvelopeKey(1024): %v", err)
	}
}

// FuzzOpenEnvelope: arbitrary bytes never panic Open, and whatever the
// fuzzer supplies as a body survives Seal → Open.
func FuzzOpenEnvelope(f *testing.F) {
	key, err := GenerateKeyPair(testRand(15), KeySize1024)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := Seal(testRand(16), &key.PublicKey, []byte(`{"samples":[]}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, bad := range tamperedEnvelopes(f, key, valid) {
		f.Add(bad.ct)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if pt, err := Open(key, data); err != nil {
			if err != ErrUndecryptable || pt != nil {
				t.Fatalf("Open failed with (%x, %v), want (nil, ErrUndecryptable)", pt, err)
			}
		}
		ct, err := Seal(testRand(17), &key.PublicKey, data)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := Open(key, ct); err != nil || !bytes.Equal(pt, data) {
			t.Fatalf("Open(Seal(x)) = (%x, %v), want x = %x", pt, err, data)
		}
	})
}
