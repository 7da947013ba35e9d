package auditor

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
)

// TestAccusationScansAllRetainedPoAs is the regression test for the
// first-spanning-pair bug: an accusation used to return the violation
// verdict from the first retained PoA whose pair spanned the incident
// instant, even when a later retained PoA for the same drone covered the
// same instant with a pair fine-grained enough to exonerate. Any
// exonerating pair proves the drone was elsewhere; the scan must prefer
// it.
func TestAccusationScansAllRetainedPoAs(t *testing.T) {
	srv, id, keys := newFixture(t)

	// Trace A: two stationary samples 60 s apart. Its only pair has a
	// ~2.7 km travel ellipse — far too coarse to rule out the zone.
	coarse := signedTrace(t, keys, urbana, 0, 0, 2, time.Minute)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, coarse)})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("coarse submit: %v / %v (%s)", err, resp.Verdict, resp.Reason)
	}

	// Trace B: the same stationary minute at 1 Hz. Every pair's travel
	// budget is ~45 m against a zone 1.3 km away — a decisive alibi.
	fine := signedTrace(t, keys, urbana, 0, 0, 61, time.Second)
	resp, err = srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, fine)})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("fine submit: %v / %v (%s)", err, resp.Verdict, resp.Reason)
	}

	zoneID := mustRegisterZone(t, srv, geo.GeoCircle{Center: urbana.Offset(90, 1300), R: 50})

	// Both retained traces span t0+30s; only trace B can exonerate. The
	// buggy scan stopped at trace A's insufficient pair.
	acc, err := srv.HandleAccusation(id, zoneID, t0.Add(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if acc.Verdict != protocol.VerdictCompliant {
		t.Errorf("verdict = %v (%s), want compliant from the later fine-grained trace", acc.Verdict, acc.Reason)
	}

	// With only coarse coverage (outside trace B's window nothing else
	// spans), the accusation still stands... and an uncovered instant is
	// still ErrNoPoA.
	if _, err := srv.HandleAccusation(id, zoneID, t0.Add(2*time.Hour)); !errors.Is(err, ErrNoPoA) {
		t.Errorf("uncovered instant err = %v, want ErrNoPoA", err)
	}
}

// registerDrone registers a fresh drone on an existing server and returns
// its ID and keys (newFixtureConfig builds its own server, which the
// storage-backed tests cannot use).
func registerDrone(t *testing.T, srv *Server) (string, droneKeys) {
	t.Helper()
	rng := rand.New(rand.NewSource(43))
	op, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	tee, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	opPub, err := sigcrypto.MarshalPublicKey(&op.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	teePub, err := sigcrypto.MarshalPublicKey(&tee.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.RegisterDrone(protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if err != nil {
		t.Fatal(err)
	}
	return resp.DroneID, droneKeys{op: op, tee: tee}
}

// flakyStore wraps a Store with a switchable Append failure.
type flakyStore struct {
	storage.Store
	fail atomic.Bool
}

func (f *flakyStore) Append(ctx context.Context, recs ...storage.Record) error {
	if f.fail.Load() {
		return errors.New("disk full")
	}
	return f.Store.Append(ctx, recs...)
}

// TestPurgeExpiredLogsWALFailure pins the sweeper-observability fix:
// PurgeExpired used to fire its WAL record on context.Background and
// swallow the error beyond the metric. Now the sweeper's context threads
// through and a failed append lands in the structured log.
func TestPurgeExpiredLogsWALFailure(t *testing.T) {
	clock := obs.NewFakeClock(t0)
	var logBuf bytes.Buffer
	st := &flakyStore{Store: storage.NewMemStore()}
	srv, err := OpenServer(Config{
		Clock:     clock,
		Retention: time.Hour,
		Logger:    olog.New(&logBuf, olog.LevelWarn, clock),
	}, st, "")
	if err != nil {
		t.Fatal(err)
	}
	id, keys := registerDrone(t, srv)

	// Nothing expired yet: no purge, no log line.
	if n := srv.PurgeExpiredCtx(context.Background()); n != 0 {
		t.Fatalf("premature purge of %d", n)
	}

	// Retain one PoA, expire it, and make the WAL fail.
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: id, EncryptedPoA: encryptFor(t, srv, signedTrace(t, keys, urbana, 0, 10, 5, time.Second))})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("submit: %v / %v (%s)", err, resp.Verdict, resp.Reason)
	}
	clock.Advance(2 * time.Hour)
	st.fail.Store(true)

	if n := srv.PurgeExpiredCtx(context.Background()); n != 1 {
		t.Fatalf("purged = %d, want 1", n)
	}
	logged := logBuf.String()
	if !strings.Contains(logged, "retention purge WAL append failed") || !strings.Contains(logged, "disk full") {
		t.Errorf("log = %q, want the WAL failure warning", logged)
	}
}

// TestPurgeSweepsAbandonedEphemera pins the bound on the three stores an
// unauthenticated caller can grow: every accusation against a commit-mode
// drone opens a challenge, and sessions and streams open on request. None
// had an exit besides being used up; now the retention sweep ages them
// out, and a swept ID answers like one that never existed.
func TestPurgeSweepsAbandonedEphemera(t *testing.T) {
	clock := &mutableClock{t: t0}
	rng := rand.New(rand.NewSource(42))
	srv, err := NewServer(Config{Clock: clock, Metrics: obs.NewRegistry(nil), Random: rng, Retention: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fullID, _ := registerDisclosureDrone(t, srv, rng, poa.DisclosureFull)
	commitID, ckeys := registerDisclosureDrone(t, srv, rng, poa.DisclosureCommit)
	ct, _, _ := commitSubmission(t, srv, ckeys, signedTrace(t, ckeys, urbana, 0, 10, 10, time.Second))
	if resp, err := srv.SubmitCommitPoA(protocol.SubmitCommitPoARequest{DroneID: commitID, EncryptedEnvelope: ct}); err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("commit submit: %v / %+v", err, resp)
	}
	zoneID := mustRegisterZone(t, srv, geo.GeoCircle{Center: urbana.Offset(90, 5000), R: 100})

	const n = 5
	var reveal protocol.RevealRequest
	var sample protocol.StreamSampleRequest
	var mac protocol.SubmitMACPoARequest
	for i := 0; i < n; i++ {
		acc, err := srv.HandleAccusation(commitID, zoneID, t0.Add(500*time.Millisecond))
		if err != nil || acc.Challenge == nil {
			t.Fatalf("accusation %d: %v / %+v", i, err, acc)
		}
		reveal = protocol.RevealRequest{ChallengeID: acc.Challenge.ChallengeID, DroneID: commitID}
		sess, err := srv.StartSession(protocol.StartSessionRequest{
			DroneID: fullID, WrappedKey: encryptBytes(t, srv, []byte("0123456789abcdef0123456789abcdef")),
		})
		if err != nil {
			t.Fatal(err)
		}
		mac = protocol.SubmitMACPoARequest{DroneID: fullID, SessionID: sess.SessionID}
		st, err := srv.OpenStream(protocol.OpenStreamRequest{DroneID: fullID})
		if err != nil {
			t.Fatal(err)
		}
		sample = protocol.StreamSampleRequest{StreamID: st.StreamID}
	}
	counts := func() [3]int {
		st := srv.Status()
		return [3]int{srv.challenges.len(), st.Sessions, st.OpenStreams}
	}
	if got := counts(); got != [3]int{n, n, n} {
		t.Fatalf("challenges/sessions/streams = %v, want %d each", got, n)
	}

	// Inside the retention window the sweep leaves them alone.
	clock.Set(t0.Add(30 * time.Minute))
	srv.PurgeExpired()
	if got := counts(); got != [3]int{n, n, n} {
		t.Fatalf("after an early sweep: challenges/sessions/streams = %v, want %d each", got, n)
	}
	clock.Set(t0.Add(time.Hour))
	srv.PurgeExpired()
	if got := counts(); got != [3]int{} {
		t.Fatalf("after the sweep: challenges/sessions/streams = %v, want none", got)
	}

	hs := httptest.NewServer(NewHandler(srv))
	defer hs.Close()
	for path, body := range map[string]any{
		protocol.PathReveal:       reveal,
		protocol.PathSubmitMACPoA: mac,
		protocol.PathStreamSample: sample,
	} {
		if resp := postJSON(t, hs.URL+path, body); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s with a swept ID: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}
