package auditor

// Key-rotation tests: the acceptance window for retired epochs (keyed by
// the injectable clock), handover validation, the HTTP status mapping,
// and durability of rotations across WAL recovery including kill-points
// cut inside the rotation record.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

// newSuiteKey generates one fresh private key of the given suite.
func newSuiteKey(t *testing.T, suiteID string, seed int64) sigcrypto.PrivateKey {
	t.Helper()
	suite, err := sigcrypto.SuiteByID(suiteID)
	if err != nil {
		t.Fatal(err)
	}
	key, err := suite.GenerateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// signedHandover builds a handover from oldEpoch to oldEpoch+1 vouched
// for by the outgoing key.
func signedHandover(t *testing.T, droneID string, oldEpoch int, outgoing sigcrypto.PrivateKey, next sigcrypto.PublicKey, at time.Time) sigcrypto.Handover {
	t.Helper()
	pub, err := next.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h := sigcrypto.Handover{
		DroneID:  droneID,
		OldEpoch: oldEpoch,
		NewEpoch: oldEpoch + 1,
		NewPub:   pub,
		At:       at,
	}
	if err := sigcrypto.SignHandover(&h, outgoing); err != nil {
		t.Fatal(err)
	}
	return h
}

// epochTrace signs a trace under the given key, stamping every sample
// with the key's rotation epoch. Sample times start at `start` so the
// trace stays fresh as tests advance the clock.
func epochTrace(t *testing.T, key sigcrypto.PrivateKey, epoch int, start time.Time, n int, gap time.Duration) poa.PoA {
	t.Helper()
	var p poa.PoA
	for i := 0; i < n; i++ {
		s := poa.Sample{
			Pos:  urbana.Offset(90, 10*float64(i)*gap.Seconds()),
			Time: start.Add(time.Duration(i) * gap),
		}.Canon()
		sig, err := key.Sign(s.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		p.Append(poa.SignedSample{Sample: s, Sig: sig, KeyEpoch: epoch})
	}
	return p
}

func submitVerdict(t *testing.T, srv *Server, id string, p poa.PoA) protocol.SubmitPoAResponse {
	t.Helper()
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRotationAcceptanceWindow is the core rotation property: after a
// rotation, PoAs signed under the retired epoch verify while the
// Auditor clock is inside the acceptance window, and are rejected as
// violations — not internal errors — once the window closes. The new
// epoch keeps verifying throughout, and an epoch the Auditor never saw
// is rejected outright.
func TestRotationAcceptanceWindow(t *testing.T) {
	clock := &mutableClock{t: t0}
	srv, id, keys := newSuiteFixtureConfig(t, sigcrypto.SuiteEd25519, Config{
		Clock:   clock,
		Metrics: obs.NewRegistry(nil),
	})

	next := newSuiteKey(t, sigcrypto.SuiteEd25519, 7)
	h := signedHandover(t, id, 0, keys.tee, next.Public(), t0)
	resp, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h})
	if err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if resp.Epoch != 1 {
		t.Fatalf("active epoch = %d, want 1", resp.Epoch)
	}

	// Inside the window: a flight that straddled the rotation submits
	// samples signed under the retired epoch-0 key.
	clock.Set(t0.Add(5 * time.Minute))
	old := submitVerdict(t, srv, id, epochTrace(t, keys.tee, 0, t0.Add(time.Minute), 10, time.Second))
	if old.Verdict != protocol.VerdictCompliant {
		t.Fatalf("old-epoch PoA inside window: %v (%s)", old.Verdict, old.Reason)
	}

	// Past the window: the same epoch is now a violation with an
	// explanatory reason, not an internal error.
	clock.Set(t0.Add(DefaultRotationWindow + time.Minute))
	expired := submitVerdict(t, srv, id, epochTrace(t, keys.tee, 0, t0.Add(16*time.Minute), 10, time.Second))
	if expired.Verdict != protocol.VerdictViolation {
		t.Fatalf("old-epoch PoA past window: %v (%s)", expired.Verdict, expired.Reason)
	}
	if !strings.Contains(expired.Reason, "acceptance window") {
		t.Errorf("expiry reason %q does not name the acceptance window", expired.Reason)
	}

	// The active epoch is unaffected by the old key's expiry.
	fresh := submitVerdict(t, srv, id, epochTrace(t, next, 1, t0.Add(17*time.Minute), 10, time.Second))
	if fresh.Verdict != protocol.VerdictCompliant {
		t.Fatalf("new-epoch PoA: %v (%s)", fresh.Verdict, fresh.Reason)
	}

	// An epoch the Auditor has no key for.
	unknown := submitVerdict(t, srv, id, epochTrace(t, next, 9, t0.Add(18*time.Minute), 10, time.Second))
	if unknown.Verdict != protocol.VerdictViolation || !strings.Contains(unknown.Reason, "unknown key epoch") {
		t.Fatalf("unknown-epoch PoA: %v (%s)", unknown.Verdict, unknown.Reason)
	}
}

// TestRotationBatchEnvelopeWindow runs the same window property through
// the §VII-A1b batch-seal door, which resolves the key from the
// envelope's KeyEpoch rather than per sample.
func TestRotationBatchEnvelopeWindow(t *testing.T) {
	clock := &mutableClock{t: t0}
	srv, id, keys := newSuiteFixtureConfig(t, sigcrypto.SuiteEd25519, Config{
		Clock:   clock,
		Metrics: obs.NewRegistry(nil),
	})
	next := newSuiteKey(t, sigcrypto.SuiteEd25519, 8)
	h := signedHandover(t, id, 0, keys.tee, next.Public(), t0)
	if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); err != nil {
		t.Fatal(err)
	}

	seal := func(key sigcrypto.PrivateKey, epoch int, start time.Time) []byte {
		samples := epochTrace(t, key, epoch, start, 10, time.Second).Alibi()
		sig, err := key.Sign(poa.MarshalBatch(samples))
		if err != nil {
			t.Fatal(err)
		}
		data, err := poa.EncodeBatchPoA(poa.BatchPoA{Samples: samples, Sig: sig, KeyEpoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		return encryptBytes(t, srv, data)
	}

	clock.Set(t0.Add(time.Minute))
	resp, err := srv.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: id, EncryptedBatch: seal(keys.tee, 0, t0)})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("old-epoch batch inside window: %v / %v (%s)", err, resp.Verdict, resp.Reason)
	}

	clock.Set(t0.Add(DefaultRotationWindow + time.Minute))
	resp, err = srv.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: id, EncryptedBatch: seal(keys.tee, 0, t0.Add(16*time.Minute))})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictViolation || !strings.Contains(resp.Reason, "acceptance window") {
		t.Fatalf("old-epoch batch past window: %v (%s)", resp.Verdict, resp.Reason)
	}

	resp, err = srv.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: id, EncryptedBatch: seal(next, 1, t0.Add(17*time.Minute))})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("new-epoch batch: %v / %v (%s)", err, resp.Verdict, resp.Reason)
	}
}

// TestRotationHandoverRejections enumerates the ways a handover must
// fail: every doctored record is refused with ErrBadHandover and the
// ring stays at epoch 0.
func TestRotationHandoverRejections(t *testing.T) {
	newFix := func(t *testing.T) (*Server, string, suiteKeys, sigcrypto.PrivateKey) {
		srv, id, keys := newSuiteFixture(t, sigcrypto.SuiteEd25519)
		return srv, id, keys, newSuiteKey(t, sigcrypto.SuiteEd25519, 11)
	}

	t.Run("not signed by outgoing key", func(t *testing.T) {
		srv, id, _, next := newFix(t)
		// The successor key vouches for itself — exactly what a
		// compromised normal world would try.
		h := signedHandover(t, id, 0, next, next.Public(), t0)
		_, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h})
		if !errors.Is(err, sigcrypto.ErrBadHandover) {
			t.Fatalf("err = %v, want ErrBadHandover", err)
		}
	})

	t.Run("tampered signature", func(t *testing.T) {
		srv, id, keys, next := newFix(t)
		h := signedHandover(t, id, 0, keys.tee, next.Public(), t0)
		h.Sig[0] ^= 0x01
		if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); !errors.Is(err, sigcrypto.ErrBadHandover) {
			t.Fatalf("err = %v, want ErrBadHandover", err)
		}
	})

	t.Run("wrong outgoing epoch", func(t *testing.T) {
		srv, id, keys, next := newFix(t)
		h := signedHandover(t, id, 3, keys.tee, next.Public(), t0)
		if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); !errors.Is(err, sigcrypto.ErrBadHandover) {
			t.Fatalf("err = %v, want ErrBadHandover", err)
		}
	})

	t.Run("epoch skip", func(t *testing.T) {
		srv, id, keys, next := newFix(t)
		h := signedHandover(t, id, 0, keys.tee, next.Public(), t0)
		h.NewEpoch = 2 // breaks the signature too, but the structural check fires first
		if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); !errors.Is(err, sigcrypto.ErrBadHandover) {
			t.Fatalf("err = %v, want ErrBadHandover", err)
		}
	})

	t.Run("suite change", func(t *testing.T) {
		srv, id, keys, _ := newFix(t)
		rsaNext := newSuiteKey(t, sigcrypto.SuiteRSA1024, 12)
		h := signedHandover(t, id, 0, keys.tee, rsaNext.Public(), t0)
		if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); !errors.Is(err, sigcrypto.ErrBadHandover) {
			t.Fatalf("err = %v, want ErrBadHandover", err)
		}
	})

	t.Run("drone id mismatch", func(t *testing.T) {
		srv, id, keys, next := newFix(t)
		h := signedHandover(t, "drone-9999", 0, keys.tee, next.Public(), t0)
		if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); !errors.Is(err, sigcrypto.ErrBadHandover) {
			t.Fatalf("err = %v, want ErrBadHandover", err)
		}
	})

	t.Run("unknown drone", func(t *testing.T) {
		srv, _, keys, next := newFix(t)
		h := signedHandover(t, "drone-9999", 0, keys.tee, next.Public(), t0)
		if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: "drone-9999", Handover: h}); !errors.Is(err, ErrUnknownDrone) {
			t.Fatalf("err = %v, want ErrUnknownDrone", err)
		}
	})

	// In every rejection case the ring must still be the single
	// manufacture-time key.
	srv, id, keys, next := newFix(t)
	h := signedHandover(t, id, 0, next, next.Public(), t0)
	_, _ = srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h})
	rec, _ := srv.drones.get(id)
	if len(rec.TEEKeys) != 1 || rec.ActiveKey().Epoch != 0 {
		t.Fatalf("ring mutated by rejected handover: %+v", rec.TEEKeys)
	}
	if v := submitVerdict(t, srv, id, epochTrace(t, keys.tee, 0, t0, 5, time.Second)); v.Verdict != protocol.VerdictCompliant {
		t.Fatalf("epoch-0 PoA after rejected handover: %v (%s)", v.Verdict, v.Reason)
	}
}

// TestRotationHTTPStatus checks the transport mapping: a bad handover is
// the client's fault and maps to 403, a good one returns the new epoch.
func TestRotationHTTPStatus(t *testing.T) {
	srv, id, keys := newSuiteFixture(t, sigcrypto.SuiteEd25519)
	hs := httptest.NewServer(NewHandler(srv))
	defer hs.Close()

	next := newSuiteKey(t, sigcrypto.SuiteEd25519, 13)
	post := func(h sigcrypto.Handover) *http.Response {
		body, err := json.Marshal(protocol.RotateKeyRequest{DroneID: id, Handover: h})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+protocol.PathRotateKey, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	bad := signedHandover(t, id, 0, next, next.Public(), t0) // self-vouched
	resp := post(bad)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("bad handover status = %d, want 403", resp.StatusCode)
	}

	good := signedHandover(t, id, 0, keys.tee, next.Public(), t0)
	resp = post(good)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good handover status = %d, want 200", resp.StatusCode)
	}
	var rk protocol.RotateKeyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rk); err != nil || rk.Epoch != 1 {
		t.Fatalf("rotate response = %+v (err %v), want epoch 1", rk, err)
	}
}

// TestRotationSurvivesRecovery rotates on a WAL-backed server, restarts
// it, and checks the full ring — retired epoch inside its window and the
// active epoch — came back, and that the window expiry still applies
// after the restart.
func TestRotationSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	srv, st := openStoreServer(t, dir, recoveryConfig(clock))
	id, keys := registerSuiteDrone(t, srv, sigcrypto.SuiteEd25519, rand.New(rand.NewSource(44)))

	next := newSuiteKey(t, sigcrypto.SuiteEd25519, 14)
	h := signedHandover(t, id, 0, keys.tee, next.Public(), t0)
	if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	clock.Set(t0.Add(5 * time.Minute))
	srv2, st2 := openStoreServer(t, dir, recoveryConfig(clock))
	defer st2.Close()

	rec, ok := srv2.drones.get(id)
	if !ok || rec.ActiveKey().Epoch != 1 || len(rec.TEEKeys) != 2 {
		t.Fatalf("recovered ring = %+v", rec.TEEKeys)
	}
	if rec.TEEKeys[0].RetiredAt.IsZero() {
		t.Fatal("recovered retired key has no RetiredAt")
	}

	if v := submitVerdict(t, srv2, id, epochTrace(t, keys.tee, 0, t0.Add(time.Minute), 5, time.Second)); v.Verdict != protocol.VerdictCompliant {
		t.Fatalf("old epoch after restart, inside window: %v (%s)", v.Verdict, v.Reason)
	}
	if v := submitVerdict(t, srv2, id, epochTrace(t, next, 1, t0.Add(2*time.Minute), 5, time.Second)); v.Verdict != protocol.VerdictCompliant {
		t.Fatalf("active epoch after restart: %v (%s)", v.Verdict, v.Reason)
	}

	clock.Set(t0.Add(DefaultRotationWindow + time.Minute))
	v := submitVerdict(t, srv2, id, epochTrace(t, keys.tee, 0, t0.Add(16*time.Minute), 5, time.Second))
	if v.Verdict != protocol.VerdictViolation || !strings.Contains(v.Reason, "acceptance window") {
		t.Fatalf("old epoch after restart, past window: %v (%s)", v.Verdict, v.Reason)
	}
}

// TestRotationKillPoints cuts the WAL at and inside the rotation record:
// a crash before the record committed recovers to epoch 0 (and the
// rotation can be retried), a crash after recovers to epoch 1.
func TestRotationKillPoints(t *testing.T) {
	dir := t.TempDir()
	clock := &mutableClock{t: t0}
	srv, st := openStoreServer(t, dir, recoveryConfig(clock))
	id, keys := registerSuiteDrone(t, srv, sigcrypto.SuiteEd25519, rand.New(rand.NewSource(45)))
	next := newSuiteKey(t, sigcrypto.SuiteEd25519, 15)
	h := signedHandover(t, id, 0, keys.tee, next.Public(), t0)
	if _, err := srv.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	seg := activeSegment(t, dir)
	kinds, ends := walFrames(t, seg)
	rotAt := -1
	for i, k := range kinds {
		if k == recKeyRotated {
			rotAt = i
		}
	}
	if rotAt < 1 {
		t.Fatalf("no key-rotated frame in %v", kinds)
	}

	cuts := []struct {
		name      string
		len       int64
		wantEpoch int
	}{
		{"before rotation record", ends[rotAt-1], 0},
		{"inside rotation record", ends[rotAt] - 3, 0},
		{"after rotation record", ends[rotAt], 1},
	}
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			cutDir := t.TempDir()
			copyDir(t, dir, cutDir)
			cutSeg := filepath.Join(cutDir, filepath.Base(seg))
			if err := os.Truncate(cutSeg, cut.len); err != nil {
				t.Fatal(err)
			}
			srv2, st2 := openStoreServer(t, cutDir, recoveryConfig(clock))
			defer st2.Close()
			rec, ok := srv2.drones.get(id)
			if !ok {
				t.Fatal("drone lost in recovery")
			}
			if rec.ActiveKey().Epoch != cut.wantEpoch {
				t.Fatalf("active epoch = %d, want %d", rec.ActiveKey().Epoch, cut.wantEpoch)
			}
			if cut.wantEpoch == 0 {
				// The lost rotation can simply be retried.
				if _, err := srv2.RotateKey(protocol.RotateKeyRequest{DroneID: id, Handover: h}); err != nil {
					t.Fatalf("re-rotate after truncated WAL: %v", err)
				}
			}
		})
	}
}
