package protocol

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sigcrypto"
)

var t0 = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

func TestNewNonce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		n, err := NewNonce(rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(n) != 2*NonceBytes {
			t.Fatalf("nonce length = %d", len(n))
		}
		if _, err := hex.DecodeString(n); err != nil {
			t.Fatalf("nonce not hex: %v", err)
		}
		if seen[n] {
			t.Fatal("nonce collision")
		}
		seen[n] = true
	}
}

func TestZoneQuerySignVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	key, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := NewNonce(rng)
	if err != nil {
		t.Fatal(err)
	}
	req := ZoneQueryRequest{
		DroneID: "drone-0001",
		Area:    geo.NewRect(geo.LatLon{Lat: 40, Lon: -88.3}, geo.LatLon{Lat: 40.2, Lon: -88.1}),
		Nonce:   nonce,
	}
	if err := SignZoneQuery(&req, key); err != nil {
		t.Fatal(err)
	}
	if err := VerifyZoneQuery(req, &key.PublicKey); err != nil {
		t.Fatalf("verify: %v", err)
	}

	t.Run("different drone id breaks signature", func(t *testing.T) {
		bad := req
		bad.DroneID = "drone-0002"
		if err := VerifyZoneQuery(bad, &key.PublicKey); !errors.Is(err, ErrBadSignature) {
			t.Errorf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("different nonce breaks signature", func(t *testing.T) {
		bad := req
		n2, _ := NewNonce(rng)
		bad.Nonce = n2
		if err := VerifyZoneQuery(bad, &key.PublicKey); !errors.Is(err, ErrBadSignature) {
			t.Errorf("err = %v, want ErrBadSignature", err)
		}
	})
	t.Run("wrong key", func(t *testing.T) {
		other, _ := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
		if err := VerifyZoneQuery(req, &other.PublicKey); !errors.Is(err, ErrBadSignature) {
			t.Errorf("err = %v, want ErrBadSignature", err)
		}
	})
}

func TestZoneQueryBadNonceFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, nonce := range []string{"", "zz", "abcd", "not-hex-at-all-but-32-chars-long"} {
		req := ZoneQueryRequest{DroneID: "d", Nonce: nonce}
		if err := SignZoneQuery(&req, key); !errors.Is(err, ErrBadNonce) {
			t.Errorf("SignZoneQuery(%q) err = %v, want ErrBadNonce", nonce, err)
		}
		if err := VerifyZoneQuery(req, &key.PublicKey); !errors.Is(err, ErrBadNonce) {
			t.Errorf("VerifyZoneQuery(%q) err = %v, want ErrBadNonce", nonce, err)
		}
	}
}
