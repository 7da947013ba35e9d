package auditor

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/storage"
)

// scrape fetches and returns the /metrics exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of one exact series line from an
// exposition body, or -1 when absent.
func metricValue(body, series string) float64 {
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " (.+)$")
	m := re.FindStringSubmatch(body)
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return -1
	}
	return v
}

// TestMetricsEndpointExposition submits one compliant and one violating
// PoA over HTTP, then checks the exposition reports the per-stage
// verification pipeline, verdict counters, retention gauge and
// per-endpoint request counts in the documented format.
func TestMetricsEndpointExposition(t *testing.T) {
	hs, srv, droneID, keys := httpFixture(t)
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "bob", Zone: geo.GeoCircle{Center: urbana.Offset(0, 60), R: 30},
	}); err != nil {
		t.Fatal(err)
	}

	// Compliant: dense 1 s trace. Violating: sparse 20 s gaps.
	good := signedTrace(t, keys, urbana, 90, 10, 30, time.Second)
	bad := signedTrace(t, keys, urbana, 90, 10, 5, 20*time.Second)
	resp := postJSON(t, hs.URL+protocol.PathSubmitPoA, protocol.SubmitPoARequest{
		DroneID: droneID, EncryptedPoA: encryptFor(t, srv, good),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good submit status = %d", resp.StatusCode)
	}
	resp = postJSON(t, hs.URL+protocol.PathSubmitPoA, protocol.SubmitPoARequest{
		DroneID: droneID, EncryptedPoA: encryptFor(t, srv, bad),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bad submit status = %d", resp.StatusCode)
	}

	body := scrape(t, hs.URL)

	wantSeries := map[string]float64{
		`alidrone_auditor_verify_stage_seconds_count{stage="signature"}`:         2,
		`alidrone_auditor_verify_stage_seconds_count{stage="chronology"}`:        2,
		`alidrone_auditor_verify_stage_seconds_count{stage="speed"}`:             2,
		`alidrone_auditor_verify_stage_seconds_count{stage="sufficiency"}`:       2,
		`alidrone_auditor_verify_stage_total{result="pass",stage="signature"}`:   2,
		`alidrone_auditor_verify_stage_total{result="pass",stage="sufficiency"}`: 1,
		`alidrone_auditor_verify_stage_total{result="fail",stage="sufficiency"}`: 1,
		`alidrone_auditor_submissions_total{verdict="compliant"}`:                1,
		`alidrone_auditor_submissions_total{verdict="violation"}`:                1,
		`alidrone_auditor_retained_poas`:                                         1,
		`alidrone_auditor_http_requests_total{path="/v1/submit-poa"}`:            2,
		`alidrone_auditor_http_request_seconds_count{path="/v1/submit-poa"}`:     2,
	}
	for series, want := range wantSeries {
		if got := metricValue(body, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	// Stage timings are non-zero: RSA signature verification takes real
	// time, so the stage-seconds sum must be positive.
	if sum := metricValue(body, `alidrone_auditor_verify_stage_seconds_sum{stage="signature"}`); sum <= 0 {
		t.Errorf("signature stage sum = %v, want > 0", sum)
	}
}

func TestHealthz(t *testing.T) {
	hs, _, _, _ := httpFixture(t)
	resp, err := http.Get(hs.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "ok\n" {
		t.Errorf("healthz body = %q", body)
	}
	if presp, err := http.Post(hs.URL+PathHealthz, "", nil); err == nil {
		presp.Body.Close()
		if presp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST healthz = %d", presp.StatusCode)
		}
	}
}

// TestMetricsDisabled: a server without a registry serves 404 on /metrics
// but still answers /healthz.
func TestMetricsDisabled(t *testing.T) {
	srv, err := NewServer(Config{Clock: obs.ClockFunc(func() time.Time { return t0 })})
	if err != nil {
		t.Fatal(err)
	}
	hs := newTestHTTPServer(t, srv)
	resp, err := http.Get(hs + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled /metrics status = %d, want 404", resp.StatusCode)
	}
	hresp, err := http.Get(hs + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", hresp.StatusCode)
	}
}

// TestMetricsConcurrentScrape hammers /metrics while submissions are in
// flight; under -race this guards the scrape path against data races.
func TestMetricsConcurrentScrape(t *testing.T) {
	hs, srv, droneID, keys := httpFixture(t)
	// A zone near the trace makes the sparse 20 s-gap trace insufficient,
	// so every submission is a violation — violations are never recorded
	// for replay detection, which keeps the same ciphertext resubmittable.
	if _, err := srv.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "bob", Zone: geo.GeoCircle{Center: urbana.Offset(0, 60), R: 30},
	}); err != nil {
		t.Fatal(err)
	}
	p := signedTrace(t, keys, urbana, 90, 10, 5, 20*time.Second)
	ct := encryptFor(t, srv, p)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				resp := postJSONNoFatal(t, hs.URL+protocol.PathSubmitPoA, protocol.SubmitPoARequest{
					DroneID: droneID, EncryptedPoA: ct,
				})
				if resp != nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(hs.URL + PathMetrics)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	body := scrape(t, hs.URL)
	if got := metricValue(body, `alidrone_auditor_submissions_total{verdict="violation"}`); got != 15 {
		t.Errorf("violations = %v, want 15", got)
	}
}

// TestRetentionExpiryExactWindow pins the expiry boundary with a fake
// clock: one nanosecond before SubmitTime+Retention the PoA is kept, at
// exactly SubmitTime+Retention it is purged. No sleeping involved.
func TestRetentionExpiryExactWindow(t *testing.T) {
	clock := obs.NewFakeClock(t0)
	reg := obs.NewRegistry(clock)
	srv, droneID, keys := retentionFixture(t, clock, reg, 48*time.Hour)

	p := signedTrace(t, keys, urbana, 90, 10, 10, time.Second)
	resp, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: encryptFor(t, srv, p)})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("submit: %v / %v (%s)", err, resp.Verdict, resp.Reason)
	}

	clock.Set(t0.Add(48*time.Hour - time.Nanosecond))
	if removed := srv.PurgeExpired(); removed != 0 {
		t.Fatalf("purged %d one nanosecond before the window closed", removed)
	}
	if srv.Status().RetainedPoAs != 1 {
		t.Fatal("PoA lost before expiry")
	}

	clock.Set(t0.Add(48 * time.Hour))
	if removed := srv.PurgeExpired(); removed != 1 {
		t.Fatalf("purged %d at exactly the retention window, want 1", removed)
	}
	if srv.Status().RetainedPoAs != 0 {
		t.Fatal("PoA survived past expiry")
	}
	if got := reg.Gauge(MetricRetainedPoAs).Value(); got != 0 {
		t.Errorf("retained gauge = %v, want 0", got)
	}
	if got := reg.Counter(MetricEvictedPoAsTotal).Value(); got != 1 {
		t.Errorf("evicted counter = %v, want 1", got)
	}
}

// TestSweeperDeterministic drives the housekeeping loop through an
// injected tick channel and fake clock: no real timers, no sleeps.
func TestSweeperDeterministic(t *testing.T) {
	clock := obs.NewFakeClock(t0)
	srv, droneID, keys := retentionFixture(t, clock, nil, time.Hour)

	p := signedTrace(t, keys, urbana, 90, 10, 10, time.Second)
	if _, err := srv.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID, EncryptedPoA: encryptFor(t, srv, p)}); err != nil {
		t.Fatal(err)
	}

	ticks := make(chan time.Time)
	swept := make(chan int, 1)
	sw := &Sweeper{
		Server:     srv,
		Ticks:      ticks,
		AfterSweep: func(purged int) { swept <- purged },
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); sw.Run(ctx) }()

	// Tick before expiry: nothing purged.
	ticks <- clock.Now()
	if purged := <-swept; purged != 0 {
		t.Errorf("premature purge of %d PoAs", purged)
	}

	// Advance past the retention window; the next tick purges.
	clock.Advance(2 * time.Hour)
	ticks <- clock.Now()
	if purged := <-swept; purged != 1 {
		t.Errorf("purged %d, want 1", purged)
	}
	if srv.Status().RetainedPoAs != 0 {
		t.Error("retention store not emptied")
	}

	cancel()
	<-done
}

// retentionFixture is newFixture with an explicit clock, registry and
// retention window.
func retentionFixture(t *testing.T, clock obs.Clock, reg *obs.Registry, retention time.Duration) (*Server, string, droneKeys) {
	t.Helper()
	srv, droneID, keys := newFixtureConfig(t, Config{Clock: clock, Metrics: reg, Retention: retention})
	return srv, droneID, keys
}

// postJSONNoFatal is postJSON without t.Fatal, safe in goroutines.
func postJSONNoFatal(t *testing.T, url string, body any) *http.Response {
	data, contentType, query, err := protocol.EncodeHTTPRequest(new(bytes.Buffer), body)
	if err != nil {
		t.Error(err)
		return nil
	}
	resp, err := http.Post(url+query, contentType, bytes.NewReader(data))
	if err != nil {
		t.Error(err)
		return nil
	}
	return resp
}

// newTestHTTPServer serves a handler over httptest and returns the base
// URL (split out so fixtures can build servers with custom configs).
func newTestHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	hs := httptest.NewServer(NewHandler(srv))
	t.Cleanup(hs.Close)
	return hs.URL
}

// TestMACDoorCountsDisclosure: the MAC door is a row of the door table, so
// an accepted MAC submission counts under the full disclosure mode like
// every other plaintext door, and its refusals keep their order: unknown
// drone, disclosure mode, unknown session, another drone's session — all
// before an admission slot is taken.
func TestMACDoorCountsDisclosure(t *testing.T) {
	srv, id, keys := newFixture(t)
	key := []byte("0123456789abcdef0123456789abcdef")
	sess, err := srv.StartSession(protocol.StartSessionRequest{DroneID: id, WrappedKey: encryptBytes(t, srv, key)})
	if err != nil {
		t.Fatal(err)
	}
	commitID, _ := registerDisclosureDrone(t, srv, rand.New(rand.NewSource(47)), poa.DisclosureCommit)
	otherID, _ := registerDisclosureDrone(t, srv, rand.New(rand.NewSource(48)), poa.DisclosureFull)
	ct := macEnvelope(t, srv, key, signedTrace(t, keys, urbana, 90, 10, 5, time.Second))

	for _, tc := range []struct {
		name string
		req  protocol.SubmitMACPoARequest
		want error
	}{
		{"unknown drone", protocol.SubmitMACPoARequest{DroneID: "drone-9999", SessionID: "session-9999"}, ErrUnknownDrone},
		{"commit-mode drone", protocol.SubmitMACPoARequest{DroneID: commitID, SessionID: "session-9999"}, ErrDisclosureMismatch},
		{"unknown session", protocol.SubmitMACPoARequest{DroneID: id, SessionID: "session-9999"}, ErrUnknownSession},
		{"another drone's session", protocol.SubmitMACPoARequest{DroneID: otherID, SessionID: sess.SessionID}, ErrUnknownSession},
	} {
		if _, err := srv.SubmitMACPoA(tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	resp, err := srv.SubmitMACPoA(protocol.SubmitMACPoARequest{DroneID: id, SessionID: sess.SessionID, EncryptedPoA: ct})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("MAC submission: %v / %+v", err, resp)
	}
	if got := srv.Metrics().Counter(obs.L(MetricDisclosureTotal, "mode", poa.DisclosureFull)).Value(); got != 1 {
		t.Errorf("full disclosure count = %d, want 1", got)
	}
}

// TestMACSessionAuthenticatesOneFlight: the verdict on a MAC submission
// closes its session. Another PoA under the same session key is refused,
// a resent copy of the judged flight is still a replay, and a PoA whose
// tags the session key did not make cannot use the session up.
func TestMACSessionAuthenticatesOneFlight(t *testing.T) {
	srv, id, keys := newFixture(t)
	key := []byte("0123456789abcdef0123456789abcdef")
	sess, err := srv.StartSession(protocol.StartSessionRequest{DroneID: id, WrappedKey: encryptBytes(t, srv, key)})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(ct []byte) protocol.SubmitPoAResponse {
		t.Helper()
		resp, err := srv.SubmitMACPoA(protocol.SubmitMACPoARequest{DroneID: id, SessionID: sess.SessionID, EncryptedPoA: ct})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	forged := macEnvelope(t, srv, []byte("another key, not the session's.."), signedTrace(t, keys, urbana, 0, 10, 5, time.Second))
	if resp := submit(forged); resp.Verdict != protocol.VerdictViolation || !strings.Contains(resp.Reason, "MAC") {
		t.Fatalf("forged tags: %+v, want a MAC violation", resp)
	}
	first := macEnvelope(t, srv, key, signedTrace(t, keys, urbana, 90, 10, 5, time.Second))
	if resp := submit(first); resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("first flight: %+v", resp)
	}
	if resp := submit(first); !strings.Contains(resp.Reason, "replayed PoA") {
		t.Errorf("the judged flight again: %+v, want a replay", resp)
	}
	second := macEnvelope(t, srv, key, signedTrace(t, keys, urbana, 270, 10, 5, time.Second))
	if resp := submit(second); resp.Verdict != protocol.VerdictViolation || !strings.Contains(resp.Reason, "session already authenticated") {
		t.Errorf("a second flight on the session: %+v, want it refused", resp)
	}
	if srv.Status().RetainedPoAs != 1 {
		t.Errorf("retained = %d, want 1", srv.Status().RetainedPoAs)
	}
}

// TestMACSessionSurvivesAFailedSubmission: a submission that ends without
// a verdict — here the retention record cannot be logged — gives its
// session back, so the drone's retry of the same flight is judged.
func TestMACSessionSurvivesAFailedSubmission(t *testing.T) {
	st := &flakyStore{Store: storage.NewMemStore()}
	srv, err := OpenServer(Config{Clock: obs.ClockFunc(func() time.Time { return t0 })}, st, "")
	if err != nil {
		t.Fatal(err)
	}
	id, keys := registerDrone(t, srv)
	key := []byte("0123456789abcdef0123456789abcdef")
	sess, err := srv.StartSession(protocol.StartSessionRequest{DroneID: id, WrappedKey: encryptBytes(t, srv, key)})
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.SubmitMACPoARequest{DroneID: id, SessionID: sess.SessionID,
		EncryptedPoA: macEnvelope(t, srv, key, signedTrace(t, keys, urbana, 90, 10, 5, time.Second))}
	st.fail.Store(true)
	if resp, err := srv.SubmitMACPoA(req); err == nil {
		t.Fatalf("submission with a failing WAL: %+v, want an error", resp)
	}
	st.fail.Store(false)
	if resp, err := srv.SubmitMACPoA(req); err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("retry: %v / %+v, want compliant", err, resp)
	}
}
