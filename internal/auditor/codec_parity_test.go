package auditor

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/poa"
	"repro/internal/sigcrypto"
)

// TestBinaryBodyDecodesLikeJSON is the differential that let the JSON
// proof body go: over the parity corpus, decoding the binary body yields
// exactly what decoding the old JSON body of the same proof yielded —
// the bytes every signature covers, the signatures, the key epochs and
// the sample instants — so every stage after decode sees the same input
// and reaches the same verdict.
func TestBinaryBodyDecodesLikeJSON(t *testing.T) {
	_, _, keys := newFixture(t)
	mac := []byte("0123456789abcdef0123456789abcdef")
	retag := func(p poa.PoA) poa.PoA {
		var mp poa.PoA
		for _, ss := range p.Samples {
			mp.Append(poa.SignedSample{Sample: ss.Sample, Sig: sigcrypto.MAC(mac, ss.Sample.Marshal())})
		}
		return mp
	}
	compliant := signedTrace(t, keys, urbana, 0, 10, 10, time.Second)
	forged := signedTrace(t, keys, urbana, 0, 10, 10, time.Second)
	forged.Samples[4].Sample.Pos.Lat += 1e-3
	infeasible := signedTrace(t, keys, urbana, 0, 10, 10, time.Second)
	infeasible.Samples[5] = signedTrace(t, keys, urbana.Offset(0, 50_000), 0, 10, 1, time.Second).Samples[0]
	infeasible.Samples[5].Sample.Time = t0.Add(5 * time.Second)
	corpus := map[string]poa.PoA{
		"compliant":     compliant,
		"insufficient":  signedTrace(t, keys, urbana, 0, 10, 3, time.Minute),
		"forged":        forged,
		"infeasible":    infeasible,
		"rotated-epoch": epochTrace(t, sigcrypto.WrapRSAPrivate(keys.tee), 1, t0, 10, time.Second),
		"mac":           retag(compliant),
		"one sample":    signedTrace(t, keys, urbana, 0, 10, 1, time.Second),
	}
	for name, p := range corpus {
		t.Run(name, func(t *testing.T) {
			js, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			var want poa.PoA
			if err := json.Unmarshal(js, &want); err != nil {
				t.Fatal(err)
			}
			body, err := poa.EncodePoA(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := poa.DecodePoA(body)
			if err != nil {
				t.Fatal(err)
			}
			samePoA(t, got, want)
		})
	}

	t.Run("batch", func(t *testing.T) {
		samples := compliant.Alibi()
		sig, err := sigcrypto.Sign(keys.tee, poa.MarshalBatch(samples))
		if err != nil {
			t.Fatal(err)
		}
		bp := poa.BatchPoA{Samples: samples, Sig: sig, KeyEpoch: 2}
		js, _ := json.Marshal(bp)
		var want poa.BatchPoA
		if err := json.Unmarshal(js, &want); err != nil {
			t.Fatal(err)
		}
		body, err := poa.EncodeBatchPoA(bp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := poa.DecodeBatchPoA(body)
		if err != nil {
			t.Fatal(err)
		}
		if got.KeyEpoch != want.KeyEpoch || !bytes.Equal(got.Sig, want.Sig) ||
			!bytes.Equal(poa.MarshalBatch(got.Samples), poa.MarshalBatch(want.Samples)) {
			t.Fatalf("batch decodes differ: binary %+v, JSON %+v", got, want)
		}
		sameSamples(t, got.Samples, want.Samples)
	})
}

func samePoA(t *testing.T, got, want poa.PoA) {
	t.Helper()
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("binary decode has %d samples, JSON %d", len(got.Samples), len(want.Samples))
	}
	for i, w := range want.Samples {
		g := got.Samples[i]
		if !bytes.Equal(g.Sample.Marshal(), w.Sample.Marshal()) || !bytes.Equal(g.Sig, w.Sig) || g.KeyEpoch != w.KeyEpoch {
			t.Fatalf("sample %d: binary %+v, JSON %+v", i, g, w)
		}
	}
	sameSamples(t, got.Alibi(), want.Alibi())
}

// sameSamples compares what the alibi stages read: positions, altitude
// and instants.
func sameSamples(t *testing.T, got, want []poa.Sample) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if g.Pos != w.Pos || g.AltMeters != w.AltMeters || !g.Time.Equal(w.Time) {
			t.Fatalf("sample %d: binary %+v, JSON %+v", i, g, w)
		}
	}
}
