package auditor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
)

// newFixturePair builds two servers sharing one registered drone — one
// sequential (Workers: 1), one parallel — so the same PoA can be
// submitted to both and the responses compared field for field. Each
// server has its own encryption keypair, so the PoA must be encrypted
// per server (encryptFor) even though the plaintext is identical.
func newFixturePair(t *testing.T, workers int) (seq, par *Server, id string, keys droneKeys) {
	t.Helper()
	seq, seqID, seqKeys := newFixtureConfig(t, Config{
		Workers: 1,
		Clock:   obs.ClockFunc(func() time.Time { return t0 }),
	})
	par, err := NewServer(Config{
		Workers: workers,
		Clock:   obs.ClockFunc(func() time.Time { return t0 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&seqKeys.op.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&seqKeys.tee.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := par.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		t.Fatal(err)
	}
	if resp.DroneID != seqID {
		t.Fatalf("fixture drone IDs diverge: %q vs %q", seqID, resp.DroneID)
	}
	return seq, par, seqID, seqKeys
}

// TestParallelVerdictsMatchSequential replays identical submissions
// against a Workers:1 server and a parallel one: every response —
// verdict, reason (including the first-failing-sample index), and
// insufficient-pair count — must be identical. This is the determinism
// guarantee of the parallel engine.
func TestParallelVerdictsMatchSequential(t *testing.T) {
	seq, par, id, keys := newFixturePair(t, 8)
	for _, srv := range []*Server{seq, par} {
		if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
			Owner: "bob", Zone: geo.GeoCircle{Center: urbana.Offset(0, 60), R: 30},
		}); err != nil {
			t.Fatal(err)
		}
	}

	forged := signedTrace(t, keys, urbana, 90, 10, 40, time.Second)
	forged.Samples[17].Sample.Pos.Lat += 0.01
	forged.Samples[31].Sample.Pos.Lat += 0.01

	cases := map[string]poa.PoA{
		"compliant":    signedTrace(t, keys, urbana.Offset(0, 5000), 90, 10, 40, time.Second),
		"insufficient": signedTrace(t, keys, urbana, 90, 10, 5, 20*time.Second),
		"forged":       forged,
		"infeasible":   signedTrace(t, keys, urbana, 90, 1000, 5, time.Second),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := seq.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, seq, p)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, par, p)})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("parallel response diverges:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestParallelFirstFailureIndexIsLowest pins the reason string to the
// *lowest* forged index: even when workers race past sample 17, the
// reported failure must be the one a sequential scan finds first.
func TestParallelFirstFailureIndexIsLowest(t *testing.T) {
	srv, id, keys := newFixtureConfig(t, Config{
		Workers: 8,
		Clock:   obs.ClockFunc(func() time.Time { return t0 }),
	})
	p := signedTrace(t, keys, urbana, 90, 10, 60, time.Second)
	for _, i := range []int{17, 18, 42, 59} {
		p.Samples[i].Sample.Pos.Lat += 0.01
	}
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Reason, "failed at sample 17") {
		t.Errorf("reason = %q, want first failure at sample 17", resp.Reason)
	}
}

// replayDoors are the three doors that take a plaintext trace — full,
// batch and MAC — each as a fresh server with one registered drone and a
// submit function for one fixed compliant ciphertext.
func replayDoors(workers int) map[string]func(*testing.T) (*Server, func() (protocol.SubmitPoAResponse, error)) {
	fixture := func(t *testing.T) (*Server, string, droneKeys, poa.PoA) {
		srv, id, keys := newFixtureConfig(t, Config{
			Workers: workers,
			Clock:   obs.ClockFunc(func() time.Time { return t0 }),
		})
		return srv, id, keys, signedTrace(t, keys, urbana, 90, 10, 10, time.Second)
	}
	return map[string]func(*testing.T) (*Server, func() (protocol.SubmitPoAResponse, error)){
		"submit": func(t *testing.T) (*Server, func() (protocol.SubmitPoAResponse, error)) {
			srv, id, _, p := fixture(t)
			ct := encryptFor(t, srv, p)
			return srv, func() (protocol.SubmitPoAResponse, error) {
				return srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct})
			}
		},
		"batch": func(t *testing.T) (*Server, func() (protocol.SubmitPoAResponse, error)) {
			srv, id, keys, p := fixture(t)
			ct := batchEnvelope(t, srv, keys, p)
			return srv, func() (protocol.SubmitPoAResponse, error) {
				return srv.SubmitBatchPoA(protocol.SubmitBatchPoARequest{DroneID: id, EncryptedBatch: ct})
			}
		},
		"mac": func(t *testing.T) (*Server, func() (protocol.SubmitPoAResponse, error)) {
			srv, id, _, p := fixture(t)
			key := []byte("0123456789abcdef0123456789abcdef")
			sess, err := srv.StartSession(protocol.StartSessionRequest{DroneID: id, WrappedKey: encryptBytes(t, srv, key)})
			if err != nil {
				t.Fatal(err)
			}
			ct := macEnvelope(t, srv, key, p)
			return srv, func() (protocol.SubmitPoAResponse, error) {
				return srv.SubmitMACPoA(protocol.SubmitMACPoARequest{DroneID: id, SessionID: sess.SessionID, EncryptedPoA: ct})
			}
		},
	}
}

// checkOneAccepted asserts that of responses exactly one is compliant,
// every other one was rejected as a replay, and one trace is retained.
func checkOneAccepted(t *testing.T, srv *Server, responses []protocol.SubmitPoAResponse) {
	t.Helper()
	compliant := 0
	for _, resp := range responses {
		switch resp.Verdict {
		case protocol.VerdictCompliant:
			compliant++
		case protocol.VerdictViolation:
			if !strings.Contains(resp.Reason, "replayed PoA") {
				t.Errorf("unexpected rejection reason %q", resp.Reason)
			}
		}
	}
	if compliant != 1 {
		t.Errorf("accepted %d copies of the same PoA, want exactly 1", compliant)
	}
	if srv.Status().RetainedPoAs != 1 {
		t.Errorf("retained = %d, want 1", srv.Status().RetainedPoAs)
	}
}

// TestReplayRaceAcceptsExactlyOne hammers each door with concurrent
// submissions of the same ciphertext: the atomic digest claim must let
// exactly one through and reject the rest as replays, no matter how the
// goroutines interleave.
func TestReplayRaceAcceptsExactlyOne(t *testing.T) {
	for door, build := range replayDoors(4) {
		t.Run(door, func(t *testing.T) {
			srv, submit := build(t)
			const attempts = 16
			responses := make([]protocol.SubmitPoAResponse, attempts)
			var wg sync.WaitGroup
			for i := 0; i < attempts; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := submit()
					if err != nil {
						t.Errorf("submission %d: %v", i, err)
						return
					}
					responses[i] = resp
				}(i)
			}
			wg.Wait()
			checkOneAccepted(t, srv, responses)
		})
	}
}

// TestReplayAcceptedOncePerDoor: the batch and MAC doors claim the replay
// digest like the full door, so one ciphertext submitted three times in a
// row is one compliant verdict and one retained trace.
func TestReplayAcceptedOncePerDoor(t *testing.T) {
	for door, build := range replayDoors(1) {
		t.Run(door, func(t *testing.T) {
			srv, submit := build(t)
			var responses []protocol.SubmitPoAResponse
			for i := 0; i < 3; i++ {
				resp, err := submit()
				if err != nil {
					t.Fatal(err)
				}
				responses = append(responses, resp)
			}
			checkOneAccepted(t, srv, responses)
		})
	}
}

// TestConcurrentMixedVerdicts interleaves valid and forged submissions
// with registrations and purges. Run under -race it exercises the
// verification pool and every store lock at once.
func TestConcurrentMixedVerdicts(t *testing.T) {
	srv, id, keys := newFixtureConfig(t, Config{
		Workers: 4,
		Clock:   obs.ClockFunc(func() time.Time { return t0 }),
	})

	const flights = 12
	var wg sync.WaitGroup
	for i := 0; i < flights; i++ {
		// Distinct start points make every ciphertext unique.
		start := urbana.Offset(180, float64(100*i))
		good := signedTrace(t, keys, start, 90, 10, 20, time.Second)
		forged := signedTrace(t, keys, start, 270, 10, 20, time.Second)
		forged.Samples[3].Sample.Pos.Lat += 0.01
		goodCT := encryptFor(t, srv, good)
		forgedCT := encryptFor(t, srv, forged)

		wg.Add(3)
		go func() {
			defer wg.Done()
			resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: goodCT})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Verdict != protocol.VerdictCompliant {
				t.Errorf("valid trace rejected: %s", resp.Reason)
			}
		}()
		go func() {
			defer wg.Done()
			resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: forgedCT})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Verdict != protocol.VerdictViolation {
				t.Error("forged trace accepted")
			}
		}()
		go func(i int) {
			defer wg.Done()
			if i%3 == 0 {
				srv.PurgeExpired()
			}
			if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
				Owner: "owner",
				Zone:  geo.GeoCircle{Center: urbana.Offset(45, float64(20000+100*i)), R: 50},
			}); err != nil {
				t.Error(err)
			}
			srv.Status()
		}(i)
	}
	wg.Wait()

	if got := srv.Status().RetainedPoAs; got != flights {
		t.Errorf("retained = %d, want %d", got, flights)
	}
}

// TestNonceTTLExpiry verifies the zone-query nonce cache is bounded: a
// nonce blocks replays within its TTL, expires after it, and the
// PurgeExpired sweep physically removes stale entries.
func TestNonceTTLExpiry(t *testing.T) {
	clk := obs.NewFakeClock(t0)
	srv, _, _ := newFixtureConfig(t, Config{
		NonceTTL: time.Minute,
		Clock:    clk,
		Metrics:  obs.NewRegistry(nil),
	})

	if !srv.nonces.claim("n1", clk.Now()) {
		t.Fatal("fresh nonce rejected")
	}
	if srv.nonces.claim("n1", clk.Now()) {
		t.Fatal("replay inside TTL accepted")
	}
	clk.Advance(59 * time.Second)
	if srv.nonces.claim("n1", clk.Now()) {
		t.Fatal("replay at TTL-1s accepted")
	}
	clk.Advance(2 * time.Second)
	if !srv.nonces.claim("n1", clk.Now()) {
		t.Fatal("expired nonce still blocked")
	}

	// The sweep physically bounds the map.
	for i := 0; i < 10; i++ {
		srv.nonces.claim(fmt.Sprintf("bulk-%d", i), clk.Now())
	}
	clk.Advance(2 * time.Minute)
	srv.PurgeExpired()
	if n := srv.nonces.len(); n != 0 {
		t.Errorf("nonce cache holds %d entries after sweep, want 0", n)
	}
}

// TestPurgeExpiredSweepsDigests verifies the replay-digest set is bounded
// by the retention window: once the retained PoA it guards has aged out,
// the digest goes with it and the same trace becomes submittable again.
func TestPurgeExpiredSweepsDigests(t *testing.T) {
	clk := obs.NewFakeClock(t0)
	srv, id, keys := newFixtureConfig(t, Config{
		Retention: time.Hour,
		Clock:     clk,
		Metrics:   obs.NewRegistry(nil),
	})

	p := signedTrace(t, keys, urbana, 90, 10, 10, time.Second)
	ct := encryptFor(t, srv, p)
	if resp, _ := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct}); resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("first submission rejected: %s", resp.Reason)
	}
	if resp, _ := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct}); resp.Verdict != protocol.VerdictViolation {
		t.Fatal("replay inside retention accepted")
	}
	if n := srv.seen.len(); n != 1 {
		t.Fatalf("digest set holds %d entries, want 1", n)
	}

	clk.Advance(time.Hour)
	srv.PurgeExpired()
	if n := srv.seen.len(); n != 0 {
		t.Errorf("digest set holds %d entries after sweep, want 0", n)
	}
	if resp, _ := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct}); resp.Verdict != protocol.VerdictCompliant {
		t.Errorf("resubmission after retention rejected: %s", resp.Reason)
	}
}

// TestFailedClaimIsReleased verifies the claim/release pairing: a
// submission that fails verification must release its digest claim, so
// the same ciphertext stays retryable and the digest set holds only
// accepted PoAs.
func TestFailedClaimIsReleased(t *testing.T) {
	srv, id, keys := newFixtureConfig(t, Config{
		Clock: obs.ClockFunc(func() time.Time { return t0 }),
	})
	// Insufficient trace: passes authenticity, fails sufficiency.
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "bob", Zone: geo.GeoCircle{Center: urbana.Offset(0, 60), R: 30},
	}); err != nil {
		t.Fatal(err)
	}
	p := signedTrace(t, keys, urbana, 90, 10, 5, 20*time.Second)
	ct := encryptFor(t, srv, p)
	for i := 0; i < 2; i++ {
		resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: ct})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Verdict != protocol.VerdictViolation || strings.Contains(resp.Reason, "replayed") {
			t.Fatalf("attempt %d: verdict %v (%s), want non-replay violation", i, resp.Verdict, resp.Reason)
		}
	}
	if n := srv.seen.len(); n != 0 {
		t.Errorf("digest set holds %d entries after failed submissions, want 0", n)
	}
}

// TestReplayOfReencodedPoARejected: the replay digest covers the proof,
// not one spelling of it. After a PoA is accepted, the same signed samples
// re-spelled — as JSON, indented or not, or as the binary body with a
// trailing byte or a non-minimal count — never earn a second compliant
// verdict or a second retained trace.
func TestReplayOfReencodedPoARejected(t *testing.T) {
	srv, id, keys := newFixture(t)
	p := signedTrace(t, keys, urbana, 90, 10, 10, time.Second)
	body, err := poa.EncodePoA(p)
	if err != nil {
		t.Fatal(err)
	}
	compact, _ := json.Marshal(p)
	indented, _ := json.MarshalIndent(p, "", "  ")
	nonMinimal := append([]byte("ADP1"), 0x80|byte(len(p.Samples)), 0x00)
	nonMinimal = append(nonMinimal, body[5:]...)

	responses := []protocol.SubmitPoAResponse{submitVerdict(t, srv, id, p)}
	for _, spelling := range [][]byte{indented, compact, append(bytes.Clone(body), 0), nonMinimal} {
		resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptBytes(t, srv, spelling)})
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, resp)
	}
	compliant := 0
	for _, resp := range responses {
		if resp.Verdict == protocol.VerdictCompliant {
			compliant++
		}
	}
	if compliant != 1 || srv.Status().RetainedPoAs != 1 {
		t.Fatalf("%d compliant verdicts and %d retained traces for one proof in %d spellings, want 1 and 1: %+v",
			compliant, srv.Status().RetainedPoAs, len(responses), responses)
	}
}
