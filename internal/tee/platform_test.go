package tee

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
)

func platformRoute(t *testing.T) *trace.Route {
	t.Helper()
	r, err := trace.ConstantSpeedLine(geo.LatLon{Lat: 40.1106, Lon: -88.2073}, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewPlatformDefaults(t *testing.T) {
	p, err := NewPlatform(platformRoute(t), 5, sigcrypto.SuiteRSA1024, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if p.Receiver.RateHz() != 5 {
		t.Errorf("GPS rate = %v, want 5", p.Receiver.RateHz())
	}
	if got := p.Device.Vault().SuiteID(); got != sigcrypto.SuiteRSA1024 {
		t.Errorf("suite = %s, want %s", got, sigcrypto.SuiteRSA1024)
	}
	if !p.Clock.Now().Equal(t0) {
		t.Errorf("clock starts at %v, want the path start %v", p.Clock.Now(), t0)
	}
	if p.Device.Clock() != Clock(p.Clock) {
		t.Error("device does not run on the platform clock")
	}
	// The GPS Sampler TA is installed and signs over the platform's key.
	p.Clock.Set(t0.Add(10 * time.Second))
	resp, err := p.Device.Invoke(GPSSamplerUUID, CmdGetGPSAuth, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeAuthSample(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Device.Vault().SuiteKey().Verify(ss.Sample.Marshal(), ss.Sig); err != nil {
		t.Errorf("sample does not verify under the platform key: %v", err)
	}
}

func TestNewPlatformValidation(t *testing.T) {
	route := platformRoute(t)
	if _, err := NewPlatform(route, 99, sigcrypto.SuiteRSA1024, nil); err == nil {
		t.Error("out-of-range GPS rate accepted")
	}
	for _, suite := range []string{"", "rsa512"} {
		if _, err := NewPlatform(route, 5, suite, nil); err == nil {
			t.Errorf("suite %q accepted", suite)
		}
	}
}

// TestPlatformDeterministicSampling pins that one seeded source drives the
// whole build: two platforms from the same seed export the same key and
// sign the same fix to the same bytes (Ed25519 signing is deterministic),
// so seeded experiment runs reproduce bit for bit.
func TestPlatformDeterministicSampling(t *testing.T) {
	route := platformRoute(t)
	build := func(seed int64) (pub, signed []byte) {
		p, err := NewPlatform(route, 5, sigcrypto.SuiteEd25519, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if pub, err = p.Device.Invoke(GPSSamplerUUID, CmdGetPublicKey, nil); err != nil {
			t.Fatal(err)
		}
		p.Clock.Set(t0.Add(20 * time.Second))
		if signed, err = p.Device.Invoke(GPSSamplerUUID, CmdGetGPSAuth, nil); err != nil {
			t.Fatal(err)
		}
		return pub, signed
	}
	pubA, signedA := build(7)
	pubB, signedB := build(7)
	if !bytes.Equal(pubA, pubB) || !bytes.Equal(signedA, signedB) {
		t.Error("two platforms from the same seed differ")
	}
	if pubC, _ := build(8); bytes.Equal(pubA, pubC) {
		t.Error("platforms from different seeds share a key")
	}
}
