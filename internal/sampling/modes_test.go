package sampling

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/poa"
	"repro/internal/sigcrypto"
	"repro/internal/tee"
	"repro/internal/zone"
)

func TestBatchEnvBuffersWithoutSigning(t *testing.T) {
	route := straightRoute(t, 10, 30*time.Second)
	env, dev := buildEnv(t, route, 5)
	batchEnv := NewTEEBatchEnv(dev, env.Clock, env.Receiver)

	f := &FixedRate{Env: batchEnv, RateHz: 2}
	res, err := f.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	// No signatures were made during sampling; Sig fields are empty.
	if st := dev.Snapshot(); st.Signs != 0 {
		t.Errorf("Signs during batch flight = %d, want 0", st.Signs)
	}
	for i, ss := range res.PoA.Samples {
		if len(ss.Sig) != 0 {
			t.Fatalf("sample %d carries a signature in batch mode", i)
		}
	}

	// Sealing signs once and yields the recorded trace.
	batch, err := SealTrace(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Samples) != res.PoA.Len() {
		t.Errorf("sealed %d samples, recorded %d", len(batch.Samples), res.PoA.Len())
	}
	if err := sigcrypto.Verify(dev.Vault().PublicKey(), poa.MarshalBatch(batch.Samples), batch.Sig); err != nil {
		t.Errorf("batch signature invalid: %v", err)
	}
	if st := dev.Snapshot(); st.Signs != 1 {
		t.Errorf("Signs after sealing = %d, want 1", st.Signs)
	}
}

func TestMACEnvTagsWithSessionKey(t *testing.T) {
	route := straightRoute(t, 10, 20*time.Second)
	env, dev := buildEnv(t, route, 5)

	// Establish the session key: the auditor unwraps it with its private
	// key.
	rng := rand.New(rand.NewSource(8))
	auditorKey, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	pubStr, err := sigcrypto.MarshalPublicKey(&auditorKey.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := dev.Invoke(tee.GPSSamplerUUID, tee.CmdEstablishSessionKey, []byte(pubStr))
	if err != nil {
		t.Fatal(err)
	}
	sessionKey, err := sigcrypto.Open(auditorKey, wrapped)
	if err != nil {
		t.Fatal(err)
	}

	macEnv := NewTEEMACEnv(dev, env.Clock, env.Receiver)
	a := &Adaptive{Env: macEnv, Index: zone.NewIndex(nil, 0), VMaxMS: geo.MaxDroneSpeedMPS}
	res, err := a.Run(route.End())
	if err != nil {
		t.Fatal(err)
	}
	for i, ss := range res.PoA.Samples {
		if err := sigcrypto.VerifyMAC(sessionKey, ss.Sample.Marshal(), ss.Sig); err != nil {
			t.Fatalf("sample %d MAC invalid: %v", i, err)
		}
	}
	if st := dev.Snapshot(); st.Signs != 0 || st.MACs == 0 {
		t.Errorf("stats = %+v, want MACs only", st)
	}
}
