package auditor

import (
	"bytes"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

// encryptBytes encrypts an arbitrary plaintext to the server, as the
// Adapter would.
func encryptBytes(t *testing.T, srv *Server, plaintext []byte) []byte {
	t.Helper()
	return encryptBytesTo(t, srv.EncryptionPub(), plaintext)
}

func encryptBytesTo(t *testing.T, pub *rsa.PublicKey, plaintext []byte) []byte {
	t.Helper()
	ct, err := sigcrypto.Seal(rand.New(rand.NewSource(7)), pub, plaintext)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// batchEnvelope wraps a trace in the §VII-A1b batch envelope: bare
// samples plus one TEE signature over the canonical batch encoding.
func batchEnvelope(t *testing.T, srv *Server, keys droneKeys, p poa.PoA) []byte {
	t.Helper()
	samples := p.Alibi()
	sig, err := sigcrypto.Sign(keys.tee, poa.MarshalBatch(samples))
	if err != nil {
		t.Fatal(err)
	}
	data, err := poa.EncodeBatchPoA(poa.BatchPoA{Samples: samples, Sig: sig})
	if err != nil {
		t.Fatal(err)
	}
	return encryptBytes(t, srv, data)
}

// macEnvelope re-tags a trace with HMAC tags under key and encrypts it.
func macEnvelope(t *testing.T, srv *Server, key []byte, p poa.PoA) []byte {
	t.Helper()
	var mp poa.PoA
	for _, ss := range p.Samples {
		mp.Append(poa.SignedSample{Sample: ss.Sample, Sig: sigcrypto.MAC(key, ss.Sample.Marshal())})
	}
	data, err := poa.EncodePoA(mp)
	if err != nil {
		t.Fatal(err)
	}
	return encryptBytes(t, srv, data)
}

// TestVerdictParityAcrossEntryPoints asserts the tentpole property of the
// staged pipeline: the batch submission path, the alternative envelopes,
// the real-time stream path and the accusation re-check all execute the
// same stage registry, so the same trace against the same zone yields the
// same verdict no matter which door it entered through.
func TestVerdictParityAcrossEntryPoints(t *testing.T) {
	// All traces start at urbana heading north (bearing 0) at 10 m/s.
	cases := []struct {
		name string
		// trace shape
		n   int
		gap time.Duration
		// zone relative to the trace (registered before verification,
		// except on the accusation path, where it is registered after the
		// compliant retention so the trace is actually retained).
		zone geo.GeoCircle
		want protocol.Verdict
	}{
		{
			name: "compliant",
			n:    10, gap: time.Second,
			zone: geo.GeoCircle{Center: urbana.Offset(90, 5000), R: 100},
			want: protocol.VerdictCompliant,
		},
		{
			name: "violating",
			n:    10, gap: time.Second,
			zone: geo.GeoCircle{Center: urbana.Offset(0, 50), R: 100},
			want: protocol.VerdictViolation,
		},
		{
			name: "insufficient sampling",
			n:    3, gap: time.Minute,
			// ~1.3 km away: unreachable at 10 m/s in reality, but a 60 s
			// inter-sample gap leaves a >2.6 km travel ellipse, so the
			// alibi cannot rule the zone out.
			zone: geo.GeoCircle{Center: urbana.Offset(90, 1300), R: 50},
			want: protocol.VerdictViolation,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			verdicts := map[string]protocol.Verdict{}

			trace := func(keys droneKeys) poa.PoA {
				return signedTrace(t, keys, urbana, 0, 10, tc.n, tc.gap)
			}

			{ // regular per-sample-signed path
				srv, id, keys := newFixture(t)
				mustRegisterZone(t, srv, tc.zone)
				resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, trace(keys))})
				if err != nil {
					t.Fatal(err)
				}
				verdicts["submit"] = resp.Verdict
			}

			{ // batch envelope
				srv, id, keys := newFixture(t)
				mustRegisterZone(t, srv, tc.zone)
				resp, err := srv.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: id, EncryptedBatch: batchEnvelope(t, srv, keys, trace(keys))})
				if err != nil {
					t.Fatal(err)
				}
				verdicts["batch"] = resp.Verdict
			}

			{ // symmetric (MAC) envelope
				srv, id, keys := newFixture(t)
				mustRegisterZone(t, srv, tc.zone)
				key := []byte("0123456789abcdef0123456789abcdef")
				sess, err := srv.StartSession(protocol.StartSessionRequest{DroneID: id, WrappedKey: encryptBytes(t, srv, key)})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := srv.SubmitMACPoA(protocol.SubmitMACPoARequest{DroneID: id, SessionID: sess.SessionID, EncryptedPoA: macEnvelope(t, srv, key, trace(keys))})
				if err != nil {
					t.Fatal(err)
				}
				verdicts["mac"] = resp.Verdict
			}

			{ // real-time stream path
				srv, id, keys := newFixture(t)
				mustRegisterZone(t, srv, tc.zone)
				open, err := srv.OpenStream(protocol.OpenStreamRequest{DroneID: id})
				if err != nil {
					t.Fatal(err)
				}
				for _, ss := range trace(keys).Samples {
					if _, err := srv.StreamSample(protocol.StreamSampleRequest{StreamID: open.StreamID, Sample: ss}); err != nil {
						t.Fatal(err)
					}
				}
				resp, err := srv.CloseStream(protocol.CloseStreamRequest{StreamID: open.StreamID})
				if err != nil {
					t.Fatal(err)
				}
				verdicts["stream"] = resp.Verdict
			}

			{ // binary wire door (same pipeline behind the framing)
				srv, id, keys := newFixture(t)
				mustRegisterZone(t, srv, tc.zone)
				addr := startWire(t, srv, WireOptions{})
				wc := operator.NewWireClient(addr.String(), operator.WireClientOptions{})
				resp, err := wc.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, trace(keys))})
				if err != nil {
					t.Fatal(err)
				}
				wc.Close()
				verdicts["wire"] = resp.Verdict
			}

			{ // commit-envelope door: the TEE-signed predicates must judge
				// the same trace against the same zone identically, with the
				// auditor never seeing a position.
				srv, id, keys := newDisclosureFixture(t, poa.DisclosureCommit)
				mustRegisterZone(t, srv, tc.zone)
				ct, _, _ := commitSubmission(t, srv, keys, trace(keys), tc.zone)
				resp, err := srv.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: id, EncryptedEnvelope: ct})
				if err != nil {
					t.Fatal(err)
				}
				verdicts["commit"] = resp.Verdict
			}

			{ // commit envelope through the binary wire door
				srv, id, keys := newDisclosureFixture(t, poa.DisclosureCommit)
				mustRegisterZone(t, srv, tc.zone)
				ct, _, _ := commitSubmission(t, srv, keys, trace(keys), tc.zone)
				addr := startWire(t, srv, WireOptions{})
				wc := operator.NewWireClient(addr.String(), operator.WireClientOptions{})
				resp, err := wc.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: id, EncryptedEnvelope: ct})
				if err != nil {
					t.Fatal(err)
				}
				wc.Close()
				verdicts["commit-wire"] = resp.Verdict
			}

			{ // accusation re-check over the retained trace
				srv, id, keys := newFixture(t)
				resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, trace(keys))})
				if err != nil || resp.Verdict != protocol.VerdictCompliant {
					t.Fatalf("pre-accusation submit: %v / %v (%s)", err, resp.Verdict, resp.Reason)
				}
				zoneID := mustRegisterZone(t, srv, tc.zone)
				// Accuse strictly inside the first sample pair so exactly
				// one retained pair spans the instant — the same pair the
				// submission paths judge.
				mid := t0.Add(tc.gap / 2)
				acc, err := srv.HandleAccusation(id, zoneID, mid)
				if err != nil {
					t.Fatal(err)
				}
				verdicts["accusation"] = acc.Verdict
			}

			for path, v := range verdicts {
				if v != tc.want {
					t.Errorf("%s verdict = %v, want %v", path, v, tc.want)
				}
			}
		})
	}
}

func mustRegisterZone(t *testing.T, srv *Server, z geo.GeoCircle) string {
	t.Helper()
	id, err := srv.Zones().Register("owner", z)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestUndecryptableEnvelopeAnswersAlike: a submitter learns that an
// envelope did not open and nothing about why. Every way of damaging one —
// a bit flipped in each region, a cut at each boundary, another recipient's
// key, the retired chunked-RSA format — draws the same response bytes on
// every door that opens envelopes.
func TestUndecryptableEnvelopeAnswersAlike(t *testing.T) {
	full, fullID, _ := newFixture(t)
	sealed, sealedID, _ := newDisclosureFixture(t, poa.DisclosureSealed)
	commit, commitID, _ := newDisclosureFixture(t, poa.DisclosureCommit)
	wc := operator.NewWireClient(startWire(t, full, WireOptions{}).String(), operator.WireClientOptions{})
	defer wc.Close()

	doors := []struct {
		name   string
		srv    *Server
		submit func(ct []byte) (protocol.SubmitPoAResponse, error)
	}{
		{"submit", full, func(ct []byte) (protocol.SubmitPoAResponse, error) {
			return full.SubmitPoA(protocol.SubmitPoARequest{DroneID: fullID, EncryptedPoA: ct})
		}},
		{"batch", full, func(ct []byte) (protocol.SubmitPoAResponse, error) {
			return full.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: fullID, EncryptedBatch: ct})
		}},
		{"sealed", sealed, func(ct []byte) (protocol.SubmitPoAResponse, error) {
			return sealed.SubmitSealedPoA(protocol.SubmitSealedPoARequest{DroneID: sealedID, EncryptedPoA: ct})
		}},
		{"commit", commit, func(ct []byte) (protocol.SubmitPoAResponse, error) {
			return commit.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: commitID, EncryptedEnvelope: ct})
		}},
		{"wire", full, func(ct []byte) (protocol.SubmitPoAResponse, error) {
			return wc.SubmitPoA(protocol.SubmitPoARequest{DroneID: fullID, EncryptedPoA: ct})
		}},
	}

	eve, err := sigcrypto.GenerateKeyPair(rand.New(rand.NewSource(66)), sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"samples":[]}`)
	legacy, err := rsa.EncryptPKCS1v15(rand.New(rand.NewSource(8)), full.EncryptionPub(), body)
	if err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, door := range doors {
		ct := encryptBytes(t, door.srv, body)
		k := door.srv.EncryptionPub().Size()
		regions := []int{0, 1, 1 + k, 1 + k + 12, len(ct) - 16} // version, wrapped key, nonce, body, tag
		bad := map[string][]byte{"wrong recipient": encryptBytesTo(t, &eve.PublicKey, body), "legacy chunked": legacy}
		for i, off := range regions {
			flipped := bytes.Clone(ct)
			flipped[off] ^= 1
			bad[fmt.Sprintf("flip byte %d", off)] = flipped
			bad[fmt.Sprintf("cut at %d", off)] = ct[:off]
			if i > 0 {
				bad[fmt.Sprintf("cut at %d", off-1)] = ct[:off-1]
			}
		}
		for name, ct := range bad {
			resp, err := door.submit(ct)
			if err != nil {
				t.Errorf("%s door, %s: %v", door.name, name, err)
				continue
			}
			got, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			}
			if resp.Verdict != protocol.VerdictViolation || !bytes.Equal(got, want) {
				t.Errorf("%s door, %s: response %s, want %s", door.name, name, got, want)
			}
		}
	}

	// The session-key door unwraps with the same envelope.
	var wantErr string
	for _, wrapped := range [][]byte{nil, legacy, encryptBytesTo(t, &eve.PublicKey, make([]byte, 32))} {
		_, err := full.StartSession(protocol.StartSessionRequest{DroneID: fullID, WrappedKey: wrapped})
		if !errors.Is(err, sigcrypto.ErrUndecryptable) {
			t.Fatalf("StartSession: err = %v, want ErrUndecryptable", err)
		}
		if wantErr == "" {
			wantErr = err.Error()
		}
		if err.Error() != wantErr {
			t.Errorf("StartSession: %q, want %q", err, wantErr)
		}
	}
}
