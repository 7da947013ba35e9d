package tee

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/poa"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
)

var t0 = time.Date(2018, 6, 1, 15, 0, 0, 0, time.UTC)

// testStack builds a complete simulated secure stack: route → receiver →
// driver → device + sampler TA, returning the pieces tests need.
func testStack(t *testing.T) (*Device, *GPSSamplerTA, *SimClock, *gps.Receiver) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))

	route, err := trace.ConstantSpeedLine(geo.LatLon{Lat: 40.1106, Lon: -88.2073}, 90, 10, t0, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := gps.NewReceiver(route, 5)
	if err != nil {
		t.Fatal(err)
	}
	vault, err := ManufactureVault(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock(t0)
	dev := NewDevice(clock, vault)
	ta, err := NewGPSSampler(dev, gps.NewDriver(rx), rng)
	if err != nil {
		t.Fatal(err)
	}
	return dev, ta, clock, rx
}

func TestUUIDStringParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		u, err := NewRandomUUID(rng)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseUUID(u.String())
		if err != nil {
			t.Fatalf("ParseUUID(%q): %v", u.String(), err)
		}
		if back != u {
			t.Fatalf("round trip %v -> %v", u, back)
		}
	}
}

func TestParseUUIDErrors(t *testing.T) {
	for _, s := range []string{"", "not-a-uuid", "a11d2018-0086-4f0a-9001", "zzzzzzzz-0086-4f0a-9001-475053534d41"} {
		if _, err := ParseUUID(s); !errors.Is(err, ErrBadUUID) {
			t.Errorf("ParseUUID(%q) err = %v, want ErrBadUUID", s, err)
		}
	}
}

func TestSimClock(t *testing.T) {
	c := NewSimClock(t0)
	if !c.Now().Equal(t0) {
		t.Error("initial time wrong")
	}
	c.Advance(3 * time.Second)
	if !c.Now().Equal(t0.Add(3 * time.Second)) {
		t.Error("advance wrong")
	}
	c.Set(t0.Add(time.Hour))
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Error("set wrong")
	}
}

func TestInstallDuplicate(t *testing.T) {
	dev, ta, _, _ := testStack(t)
	if err := dev.Install(ta); !errors.Is(err, ErrTAExists) {
		t.Errorf("duplicate install err = %v, want ErrTAExists", err)
	}
}

func TestInvokeUnknownUUID(t *testing.T) {
	dev, _, _, _ := testStack(t)
	if _, err := dev.Invoke(UUID{1, 2, 3}, CmdGetGPSAuth, nil); !errors.Is(err, ErrNoSuchTA) {
		t.Errorf("err = %v, want ErrNoSuchTA", err)
	}
}

func TestInvokeUnknownCommand(t *testing.T) {
	dev, _, _, _ := testStack(t)
	if _, err := dev.Invoke(GPSSamplerUUID, 9999, nil); !errors.Is(err, ErrBadCommand) {
		t.Errorf("err = %v, want ErrBadCommand", err)
	}
}

func TestGetGPSAuthProducesVerifiableSample(t *testing.T) {
	dev, _, clock, _ := testStack(t)
	clock.Set(t0.Add(30 * time.Second))

	resp, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeAuthSample(resp)
	if err != nil {
		t.Fatal(err)
	}

	// The signature must verify under T+ over the canonical encoding.
	if err := sigcrypto.Verify(dev.Vault().PublicKey(), ss.Sample.Marshal(), ss.Sig); err != nil {
		t.Errorf("signature does not verify: %v", err)
	}

	// The sample should be at the latest 5 Hz tick (t0+30 s exactly).
	if !ss.Sample.Time.Equal(t0.Add(30 * time.Second)) {
		t.Errorf("sample time = %v", ss.Sample.Time)
	}

	// Tampering with the sample must break verification.
	bad := ss.Sample
	bad.Pos.Lat += 0.0001
	if err := sigcrypto.Verify(dev.Vault().PublicKey(), bad.Marshal(), ss.Sig); err == nil {
		t.Error("tampered sample verified")
	}
}

func TestGetGPSAuth3DCarriesAltitude(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	wps := []trace.Waypoint{
		{Pos: geo.LatLon{Lat: 40.1106, Lon: -88.2073}, AltMeters: 120, Time: t0},
		{Pos: geo.LatLon{Lat: 40.1206, Lon: -88.2073}, AltMeters: 120, Time: t0.Add(time.Minute)},
	}
	route, err := trace.NewRoute(wps)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := gps.NewReceiver(route, 5)
	if err != nil {
		t.Fatal(err)
	}
	vault, err := ManufactureVault(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock(t0.Add(10 * time.Second))
	dev := NewDevice(clock, vault)
	if _, err := NewGPSSampler(dev, gps.NewDriver(rx), rng); err != nil {
		t.Fatal(err)
	}

	resp, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth3D, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeAuthSample(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Sample.AltMeters < 119 || ss.Sample.AltMeters > 121 {
		t.Errorf("altitude = %v, want ~120", ss.Sample.AltMeters)
	}
	if err := sigcrypto.Verify(dev.Vault().PublicKey(), ss.Sample.Marshal(), ss.Sig); err != nil {
		t.Errorf("3-D signature does not verify: %v", err)
	}
}

func TestGetPublicKey(t *testing.T) {
	dev, _, _, _ := testStack(t)
	resp, err := dev.Invoke(GPSSamplerUUID, CmdGetPublicKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := sigcrypto.UnmarshalPublicKey(string(resp))
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(dev.Vault().PublicKey().N) != 0 {
		t.Error("exported public key mismatch")
	}
}

func TestStatsCounting(t *testing.T) {
	dev, _, clock, _ := testStack(t)
	dev.ResetStats()

	for i := 0; i < 5; i++ {
		clock.Advance(time.Second)
		if _, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth, nil); err != nil {
			t.Fatal(err)
		}
	}
	// One non-signing call.
	if _, err := dev.Invoke(GPSSamplerUUID, CmdGetPublicKey, nil); err != nil {
		t.Fatal(err)
	}

	st := dev.Snapshot()
	if st.SMCCalls != 6 {
		t.Errorf("SMCCalls = %d, want 6", st.SMCCalls)
	}
	if st.Signs != 5 {
		t.Errorf("Signs = %d, want 5", st.Signs)
	}
	if st.SignedBytes == 0 {
		t.Error("SignedBytes should be > 0")
	}

	dev.ResetStats()
	if st := dev.Snapshot(); st.SMCCalls != 0 || st.Signs != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestBatchModeSealTrace(t *testing.T) {
	dev, _, clock, _ := testStack(t)

	// Sealing an empty buffer errors.
	if _, err := dev.Invoke(GPSSamplerUUID, CmdSealTrace, nil); !errors.Is(err, ErrEmptyTraceBuffer) {
		t.Errorf("empty seal err = %v, want ErrEmptyTraceBuffer", err)
	}

	const n = 10
	for i := 0; i < n; i++ {
		clock.Advance(time.Second)
		if _, err := dev.Invoke(GPSSamplerUUID, CmdBufferSample, nil); err != nil {
			t.Fatal(err)
		}
	}
	dev.ResetStats()
	resp, err := dev.Invoke(GPSSamplerUUID, CmdSealTrace, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DecodeSealedTrace(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Samples) != n {
		t.Fatalf("batch has %d samples, want %d", len(batch.Samples), n)
	}
	if err := sigcrypto.Verify(dev.Vault().PublicKey(), poa.MarshalBatch(batch.Samples), batch.Sig); err != nil {
		t.Errorf("batch signature does not verify: %v", err)
	}
	// Exactly one signature for the whole trace (the point of §VII-A1b).
	if st := dev.Snapshot(); st.Signs != 1 {
		t.Errorf("Signs = %d, want 1", st.Signs)
	}

	// The buffer is cleared after sealing.
	if _, err := dev.Invoke(GPSSamplerUUID, CmdSealTrace, nil); !errors.Is(err, ErrEmptyTraceBuffer) {
		t.Errorf("second seal err = %v, want ErrEmptyTraceBuffer", err)
	}
}

func TestSymmetricSessionMode(t *testing.T) {
	dev, _, clock, _ := testStack(t)
	rng := rand.New(rand.NewSource(9))

	// Before key establishment, MAC sampling fails.
	if _, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSMAC, nil); !errors.Is(err, ErrNoSessionKey) {
		t.Errorf("err = %v, want ErrNoSessionKey", err)
	}

	// The Auditor generates its keypair and sends the public key.
	auditorKey, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	pubStr, err := sigcrypto.MarshalPublicKey(&auditorKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := dev.Invoke(GPSSamplerUUID, CmdEstablishSessionKey, []byte(pubStr))
	if err != nil {
		t.Fatal(err)
	}

	// Only the Auditor can unwrap the session key.
	sessionKey, err := sigcrypto.Open(auditorKey, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessionKey) != sessionKeyBytes {
		t.Fatalf("session key length = %d", len(sessionKey))
	}

	clock.Advance(2 * time.Second)
	resp, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSMAC, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeAuthSample(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := sigcrypto.VerifyMAC(sessionKey, ss.Sample.Marshal(), ss.Sig); err != nil {
		t.Errorf("MAC does not verify: %v", err)
	}
	if st := dev.Snapshot(); st.MACs != 1 {
		t.Errorf("MACs = %d, want 1", st.MACs)
	}

	// Garbage public key is rejected.
	if _, err := dev.Invoke(GPSSamplerUUID, CmdEstablishSessionKey, []byte("junk")); !errors.Is(err, ErrBadPayload) {
		t.Errorf("err = %v, want ErrBadPayload", err)
	}
}

func TestDecodeSegmentsErrors(t *testing.T) {
	if _, err := DecodeSegments([]byte{0, 0}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("truncated header err = %v", err)
	}
	if _, err := DecodeSegments([]byte{0, 0, 0, 5, 'a'}); !errors.Is(err, ErrBadPayload) {
		t.Errorf("truncated segment err = %v", err)
	}
	if _, err := DecodeAuthSample(encodeSegments([]byte("one"))); !errors.Is(err, ErrBadPayload) {
		t.Errorf("one-segment auth sample err = %v", err)
	}
	if _, err := DecodeSealedTrace(encodeSegments([]byte("one"))); !errors.Is(err, ErrBadPayload) {
		t.Errorf("one-segment sealed trace err = %v", err)
	}
	if _, err := DecodeAuthSample(encodeSegments([]byte("bad"), []byte("sig"))); err == nil {
		t.Error("bad sample encoding should error")
	}
}

func TestGPSReadBeforeFix(t *testing.T) {
	dev, _, clock, _ := testStack(t)
	clock.Set(t0.Add(-time.Minute))
	if _, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth, nil); err == nil {
		t.Error("expected error before first GPS fix")
	}
}
