package sigcrypto

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// testRand is a deterministic entropy source for reproducible key
// generation in tests.
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, bits := range []int{KeySize1024, KeySize2048} {
		key, err := GenerateKeyPair(testRand(int64(bits)), bits)
		if err != nil {
			t.Fatalf("GenerateKeyPair(%d): %v", bits, err)
		}
		msg := []byte("40.110600,-88.207300,1530000000")
		sig, err := Sign(key, msg)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		if len(sig) != bits/8 {
			t.Errorf("signature length = %d, want %d", len(sig), bits/8)
		}
		if err := Verify(&key.PublicKey, msg, sig); err != nil {
			t.Errorf("Verify: %v", err)
		}
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	key, err := GenerateKeyPair(testRand(2), KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("40.110600,-88.207300,1530000000")
	sig, err := Sign(key, msg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("modified message", func(t *testing.T) {
		bad := append([]byte(nil), msg...)
		bad[0] ^= 1
		if err := Verify(&key.PublicKey, bad, sig); !errors.Is(err, ErrBadSignature) {
			t.Errorf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("modified signature", func(t *testing.T) {
		bad := append([]byte(nil), sig...)
		bad[len(bad)/2] ^= 1
		if err := Verify(&key.PublicKey, msg, bad); !errors.Is(err, ErrBadSignature) {
			t.Errorf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("wrong key", func(t *testing.T) {
		other, err := GenerateKeyPair(testRand(3), KeySize1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(&other.PublicKey, msg, sig); !errors.Is(err, ErrBadSignature) {
			t.Errorf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("truncated signature", func(t *testing.T) {
		if err := Verify(&key.PublicKey, msg, sig[:10]); !errors.Is(err, ErrBadSignature) {
			t.Errorf("err = %v, want ErrBadSignature", err)
		}
	})
}

func TestPublicKeyMarshalRoundTrip(t *testing.T) {
	key, err := GenerateKeyPair(testRand(10), KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := MarshalPublicKey(&key.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPublicKey(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.N.Cmp(key.PublicKey.N) != 0 || back.E != key.PublicKey.E {
		t.Error("public key round trip mismatch")
	}
}

func TestPrivateKeyMarshalRoundTrip(t *testing.T) {
	key, err := GenerateKeyPair(testRand(11), KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	s, err := MarshalPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPrivateKey(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.D.Cmp(key.D) != 0 {
		t.Error("private key round trip mismatch")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalPublicKey("!!!not base64!!!"); !errors.Is(err, ErrBadKeyEncoding) {
		t.Errorf("err = %v, want ErrBadKeyEncoding", err)
	}
	if _, err := UnmarshalPublicKey("aGVsbG8="); !errors.Is(err, ErrBadKeyEncoding) {
		t.Errorf("err = %v, want ErrBadKeyEncoding", err)
	}
	if _, err := UnmarshalPrivateKey("!!!"); !errors.Is(err, ErrBadKeyEncoding) {
		t.Errorf("err = %v, want ErrBadKeyEncoding", err)
	}
	if _, err := UnmarshalPrivateKey("aGVsbG8="); !errors.Is(err, ErrBadKeyEncoding) {
		t.Errorf("err = %v, want ErrBadKeyEncoding", err)
	}
}

func TestMAC(t *testing.T) {
	key := []byte("ephemeral-session-key-0123456789")
	msg := []byte("sample payload")
	tag := MAC(key, msg)
	if err := VerifyMAC(key, msg, tag); err != nil {
		t.Errorf("VerifyMAC: %v", err)
	}
	if err := VerifyMAC(key, append([]byte("x"), msg...), tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("modified message: err = %v, want ErrBadSignature", err)
	}
	if err := VerifyMAC([]byte("other key"), msg, tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("wrong key: err = %v, want ErrBadSignature", err)
	}
	tag[0] ^= 1
	if err := VerifyMAC(key, msg, tag); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered tag: err = %v, want ErrBadSignature", err)
	}
}

func TestMACDeterministic(t *testing.T) {
	key := []byte("k")
	if !bytes.Equal(MAC(key, []byte("m")), MAC(key, []byte("m"))) {
		t.Error("MAC should be deterministic")
	}
	if bytes.Equal(MAC(key, []byte("m")), MAC(key, []byte("n"))) {
		t.Error("different messages should have different tags")
	}
}
