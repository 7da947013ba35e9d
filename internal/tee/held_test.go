package tee

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/sigcrypto"
	"repro/internal/trace"
)

// heldStack is testStack over a 5 Hz receiver that misses the given
// ticks, with the clock at t0.
func heldStack(t *testing.T, missed ...int64) (*Device, *SimClock) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	route, err := trace.ConstantSpeedLine(geo.LatLon{Lat: 40.1106, Lon: -88.2073}, 90, 10, t0, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := gps.NewReceiver(route, 5, gps.WithMissedUpdates(missed...))
	if err != nil {
		t.Fatal(err)
	}
	vault, err := ManufactureSuiteVault(rng, "ed25519")
	if err != nil {
		t.Fatal(err)
	}
	clock := NewSimClock(t0)
	dev := NewDevice(clock, vault)
	if _, err := NewGPSSampler(dev, gps.NewDriver(rx), rng); err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

// tick is the instant of 5 Hz update k.
func tick(k int) time.Time { return t0.Add(time.Duration(k) * 200 * time.Millisecond) }

// TestHeldFixSignsTheNamedEarlierFix: with the latest fix at tick 10, a
// held-fix request for tick 9 signs tick 9's fix, in one world switch and
// one signature, on each of the three sampling commands. The zero time
// names no fix: its payload is the empty one that takes the latest.
func TestHeldFixSignsTheNamedEarlierFix(t *testing.T) {
	if p := HeldFix(time.Time{}); p != nil {
		t.Errorf("HeldFix(zero) = %x, want no payload", p)
	}
	for _, cmd := range []uint32{CmdGetGPSAuth, CmdBufferSample, CmdGetGPSMAC} {
		dev, clock := heldStack(t)
		if cmd == CmdGetGPSMAC {
			establishSession(t, dev)
		}
		if _, err := dev.Invoke(GPSSamplerUUID, cmd, nil); err != nil {
			t.Fatal(err)
		}
		clock.Set(tick(10))
		before := dev.Snapshot()
		resp, err := dev.Invoke(GPSSamplerUUID, cmd, HeldFix(tick(9)))
		if err != nil {
			t.Fatalf("cmd %d: %v", cmd, err)
		}
		got := decodeSampleResponse(t, cmd, resp)
		if !got.Equal(tick(9)) {
			t.Errorf("cmd %d: authenticated the fix at %v, want %v", cmd, got, tick(9))
		}
		after := dev.Snapshot()
		if d := after.SMCCalls - before.SMCCalls; d != 1 {
			t.Errorf("cmd %d: %d SMCs, want 1", cmd, d)
		}
		if d := (after.Signs + after.MACs) - (before.Signs + before.MACs); cmd != CmdBufferSample && d != 1 {
			t.Errorf("cmd %d: %d signatures or tags, want 1", cmd, d)
		}
	}
}

// TestHeldFixRefusals: the TA authenticates a held fix only when it is
// stamped at the named instant, newer than the last fix it authenticated
// and older than the latest fix; anything else is refused without a
// signature, and a refusal does not move the last authenticated fix.
func TestHeldFixRefusals(t *testing.T) {
	cases := []struct {
		name    string
		missed  []int64
		payload func() []byte
		want    error
	}{
		{"stale", nil, func() []byte { return HeldFix(tick(1)) }, ErrHeldFixRefused},
		{"double sign", nil, func() []byte { return HeldFix(tick(2)) }, ErrHeldFixRefused},
		{"the latest fix", nil, func() []byte { return HeldFix(tick(10)) }, ErrHeldFixRefused},
		{"a future fix", nil, func() []byte { return HeldFix(tick(11)) }, ErrHeldFixRefused},
		{"missed update", []int64{6}, func() []byte { return HeldFix(tick(6)) }, ErrHeldFixRefused},
		{"between ticks", nil, func() []byte { return HeldFix(tick(6).Add(time.Millisecond)) }, ErrHeldFixRefused},
		{"short payload", nil, func() []byte { return HeldFix(tick(6))[:7] }, ErrBadPayload},
		{"long payload", nil, func() []byte { return append(HeldFix(tick(6)), 0) }, ErrBadPayload},
	}
	for _, cmd := range []uint32{CmdGetGPSAuth, CmdBufferSample, CmdGetGPSMAC} {
		for _, tc := range cases {
			dev, clock := heldStack(t, tc.missed...)
			if cmd == CmdGetGPSMAC {
				establishSession(t, dev)
			}
			// The last authenticated fix is tick 2; the latest is tick 10.
			clock.Set(tick(2))
			if _, err := dev.Invoke(GPSSamplerUUID, cmd, nil); err != nil {
				t.Fatal(err)
			}
			clock.Set(tick(10))
			before := dev.Snapshot()
			if _, err := dev.Invoke(GPSSamplerUUID, cmd, tc.payload()); !errors.Is(err, tc.want) {
				t.Errorf("cmd %d, %s: err = %v, want %v", cmd, tc.name, err, tc.want)
			}
			if after := dev.Snapshot(); after.Signs != before.Signs || after.MACs != before.MACs {
				t.Errorf("cmd %d, %s: a refused request was authenticated", cmd, tc.name)
			}
			// Tick 3 is still signable: the refusal did not advance the
			// last authenticated fix.
			if _, err := dev.Invoke(GPSSamplerUUID, cmd, HeldFix(tick(3))); err != nil {
				t.Errorf("cmd %d, %s: held fix after a refusal: %v", cmd, tc.name, err)
			}
		}
	}
}

// TestHeldFixIsSignedOnce: a held fix, once authenticated, is the last
// authenticated fix, so naming it again (or anything older) is refused.
func TestHeldFixIsSignedOnce(t *testing.T) {
	dev, clock := heldStack(t)
	if _, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth, nil); err != nil {
		t.Fatal(err)
	}
	clock.Set(tick(10))
	if _, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth, HeldFix(tick(5))); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 4} {
		if _, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth, HeldFix(tick(k))); !errors.Is(err, ErrHeldFixRefused) {
			t.Errorf("re-sign of tick %d: err = %v, want ErrHeldFixRefused", k, err)
		}
	}
}

// establishSession opens a MAC session on dev under a fresh auditor key.
func establishSession(t *testing.T, dev *Device) {
	t.Helper()
	auditorKey, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(9)), sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := sigcrypto.MarshalPublicKey(&auditorKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Invoke(GPSSamplerUUID, CmdEstablishSessionKey, []byte(pub)); err != nil {
		t.Fatal(err)
	}
}

// decodeSampleResponse returns the time of the sample a sampling command
// answered with.
func decodeSampleResponse(t *testing.T, cmd uint32, resp []byte) time.Time {
	t.Helper()
	if cmd == CmdBufferSample {
		s, err := poa.UnmarshalSample(resp)
		if err != nil {
			t.Fatal(err)
		}
		return s.Time
	}
	ss, err := DecodeAuthSample(resp)
	if err != nil {
		t.Fatal(err)
	}
	return ss.Sample.Time
}

// TestRotationCarriesTheEpoch: CmdRotateKey hands over to a successor key
// signed by the outgoing one, and every signature after it carries the
// new epoch in the response's third segment.
func TestRotationCarriesTheEpoch(t *testing.T) {
	dev, clock := heldStack(t)
	outgoing := dev.Vault().SuiteKey()
	if dev.Vault().SuiteID() != "ed25519" || dev.Vault().Epoch() != 0 {
		t.Fatalf("vault = %s epoch %d, want ed25519 epoch 0", dev.Vault().SuiteID(), dev.Vault().Epoch())
	}
	if _, err := dev.Invoke(GPSSamplerUUID, CmdRotateKey, nil); !errors.Is(err, ErrBadPayload) {
		t.Errorf("rotate without a drone id: err = %v, want ErrBadPayload", err)
	}
	raw, err := dev.Invoke(GPSSamplerUUID, CmdRotateKey, []byte("drone-1"))
	if err != nil {
		t.Fatal(err)
	}
	var h sigcrypto.Handover
	if err := json.Unmarshal(raw, &h); err != nil {
		t.Fatal(err)
	}
	if err := sigcrypto.VerifyHandover(h, outgoing); err != nil {
		t.Errorf("handover does not verify under the outgoing key: %v", err)
	}
	if h.DroneID != "drone-1" || h.NewEpoch != 1 || dev.Vault().Epoch() != 1 {
		t.Errorf("handover = %+v, vault epoch %d; want drone-1, epoch 1", h, dev.Vault().Epoch())
	}

	clock.Set(tick(3))
	resp, err := dev.Invoke(GPSSamplerUUID, CmdGetGPSAuth, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeAuthSample(resp)
	if err != nil {
		t.Fatal(err)
	}
	if ss.KeyEpoch != 1 {
		t.Errorf("sample epoch = %d, want 1", ss.KeyEpoch)
	}
	if err := dev.Vault().SuiteKey().Verify(ss.Sample.Marshal(), ss.Sig); err != nil {
		t.Errorf("sample does not verify under the successor key: %v", err)
	}
	if _, err := DecodeAuthSample(encodeSegments([]byte("s"), []byte("sig"), []byte{1})); !errors.Is(err, ErrBadPayload) {
		t.Errorf("3-byte epoch segment: err = %v, want ErrBadPayload", err)
	}
}

// TestCommitTrace: CmdCommitTrace signs each buffered sample and the
// commit envelope, hands back one key per sample, clears the buffer and
// refuses an empty buffer or an undecodable request.
func TestCommitTrace(t *testing.T) {
	dev, clock := heldStack(t)
	reg := obs.NewRegistry(nil)
	dev.SetMetrics(reg)
	smcs := dev.Snapshot().SMCCalls
	req := EncodeCommitTraceRequest([]geo.GeoCircle{{Center: geo.LatLon{Lat: 40.2, Lon: -88.2}, R: 100}}, 0)
	if _, err := dev.Invoke(GPSSamplerUUID, CmdCommitTrace, []byte("{")); !errors.Is(err, ErrBadPayload) {
		t.Errorf("bad request: err = %v, want ErrBadPayload", err)
	}
	if _, err := dev.Invoke(GPSSamplerUUID, CmdCommitTrace, req); !errors.Is(err, ErrEmptyTraceBuffer) {
		t.Errorf("empty buffer: err = %v, want ErrEmptyTraceBuffer", err)
	}
	for k := 0; k < 3; k++ {
		clock.Set(tick(5 * k))
		if _, err := dev.Invoke(GPSSamplerUUID, CmdBufferSample, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := dev.Snapshot()
	raw, err := dev.Invoke(GPSSamplerUUID, CmdCommitTrace, req)
	if err != nil {
		t.Fatal(err)
	}
	env, sealed, keys, err := DecodeCommitTraceResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeCommitTraceResult(env, sealed, keys), raw) {
		t.Error("commit result does not re-encode to itself")
	}
	if len(keys) != 3 || len(env.Times) != 3 || env.VMaxMS != geo.MaxDroneSpeedMPS {
		t.Errorf("commit: %d keys, %d times, vmax %v; want 3, 3, the FAA cap", len(keys), len(env.Times), env.VMaxMS)
	}
	if d := dev.Snapshot().Signs - before.Signs; d != 4 {
		t.Errorf("commit signed %d times, want 3 samples + 1 envelope", d)
	}
	if err := dev.Vault().SuiteKey().Verify(env.SigningBytes(), env.Sig); err != nil {
		t.Errorf("envelope signature does not verify: %v", err)
	}
	tree, err := sealed.MerkleTree()
	if err != nil {
		t.Fatal(err)
	}
	if root := tree.Root(); !bytes.Equal(root[:], env.Root) {
		t.Error("sealed entries do not rebuild the envelope's root")
	}
	for i, e := range sealed.Entries {
		s, err := privacy.Open(e, keys[i])
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !s.Time.Equal(env.Times[i]) {
			t.Errorf("entry %d opens at %v, envelope says %v", i, s.Time, env.Times[i])
		}
	}
	for cut := 0; cut < len(raw); cut += 7 {
		if _, _, _, err := DecodeCommitTraceResult(raw[:cut]); !errors.Is(err, ErrBadPayload) {
			t.Fatalf("result cut at %d: err = %v, want ErrBadPayload", cut, err)
		}
	}
	if _, _, _, err := DecodeCommitTraceResult(append(raw[:len(raw):len(raw)], 0)); !errors.Is(err, ErrBadPayload) {
		t.Errorf("trailing byte: err = %v, want ErrBadPayload", err)
	}
	if _, err := dev.Invoke(GPSSamplerUUID, CmdCommitTrace, req); !errors.Is(err, ErrEmptyTraceBuffer) {
		t.Errorf("second commit: err = %v, want ErrEmptyTraceBuffer", err)
	}
	if got, want := reg.Counter(MetricSMCTotal).Value(), dev.Snapshot().SMCCalls-smcs; got != want {
		t.Errorf("%s = %d, want the device's %d", MetricSMCTotal, got, want)
	}
}
