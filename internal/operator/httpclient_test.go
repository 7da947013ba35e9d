package operator

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// flakyHandler fails the first n requests with the given status, then
// delegates to ok.
type flakyHandler struct {
	fails  int32
	status int
	ok     http.HandlerFunc
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if atomic.AddInt32(&f.fails, -1) >= 0 {
		http.Error(w, "upstream unavailable", f.status)
		return
	}
	f.ok(w, r)
}

func TestClientRetriesGatewayErrors(t *testing.T) {
	fh := &flakyHandler{fails: 2, status: http.StatusServiceUnavailable,
		ok: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"droneId":"drone-1"}`))
		}}
	hs := httptest.NewServer(fh)
	defer hs.Close()

	reg := obs.NewRegistry(nil)
	var slept []time.Duration
	c := NewHTTPAuditor(hs.URL, nil)
	c.SetRetryPolicy(RetryPolicy{Max: 3, Backoff: 10 * time.Millisecond})
	c.SetMetrics(reg)
	c.setSleep(func(d time.Duration) { slept = append(slept, d) })

	resp, err := c.RegisterDrone(protocol.RegisterDroneRequest{})
	if err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if resp.DroneID != "drone-1" {
		t.Errorf("DroneID = %q", resp.DroneID)
	}
	// Two failures → two retries with doubled backoff; third attempt wins.
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [10ms 20ms]", slept)
	}
	path := protocol.PathRegisterDrone
	if got := reg.Counter(obs.L(MetricClientRequestsTotal, "path", path)).Value(); got != 1 {
		t.Errorf("requests counter = %d, want 1 (retries are not new requests)", got)
	}
	if got := reg.Counter(obs.L(MetricClientRetriesTotal, "path", path)).Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
	if got := reg.Histogram(obs.L(MetricClientRequestSeconds, "path", path), obs.DurationBuckets).Count(); got != 1 {
		t.Errorf("latency observations = %d, want 1", got)
	}
}

// TestClientRetriesMisdirected: a cluster node's single-hop guard answers
// 421 before any stage judges the request, so the client retries it under
// its policy; the retry lands once the nodes agree on the owner.
func TestClientRetriesMisdirected(t *testing.T) {
	fh := &flakyHandler{fails: 1, status: http.StatusMisdirectedRequest,
		ok: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"verdict":"compliant"}`))
		}}
	hs := httptest.NewServer(fh)
	defer hs.Close()

	reg := obs.NewRegistry(nil)
	c := NewHTTPAuditor(hs.URL, nil)
	c.SetRetryPolicy(RetryPolicy{Max: 3, Backoff: time.Millisecond})
	c.SetMetrics(reg)
	c.setSleep(func(time.Duration) {})
	resp, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "drone-1", EncryptedPoA: []byte{1}})
	if err != nil || resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("submit after a 421: %v / %+v", err, resp)
	}
	if got := reg.Counter(obs.L(MetricClientRetriesTotal, "path", protocol.PathSubmitPoA)).Value(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

func TestClientRetriesExhausted(t *testing.T) {
	fh := &flakyHandler{fails: 100, status: http.StatusBadGateway,
		ok: func(w http.ResponseWriter, r *http.Request) {}}
	hs := httptest.NewServer(fh)
	defer hs.Close()

	c := NewHTTPAuditor(hs.URL, nil)
	c.SetRetryPolicy(RetryPolicy{Max: 2})
	c.setSleep(func(time.Duration) {})
	if _, err := c.RegisterDrone(protocol.RegisterDroneRequest{}); err == nil {
		t.Fatal("exhausted retries did not surface an error")
	}
	// 1 attempt + 2 retries were consumed.
	if remaining := atomic.LoadInt32(&fh.fails); remaining != 97 {
		t.Errorf("server saw %d requests, want 3", 100-remaining)
	}
}

// TestClientNoRetryOnClientError: 4xx responses are the Auditor speaking;
// they must not be retried.
func TestClientNoRetryOnClientError(t *testing.T) {
	var hits int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		http.Error(w, `{"error":"unknown drone"}`, http.StatusNotFound)
	}))
	defer hs.Close()

	c := NewHTTPAuditor(hs.URL, nil)
	c.SetRetryPolicy(RetryPolicy{Max: 5, Backoff: time.Millisecond})
	c.setSleep(func(time.Duration) { t.Error("slept on a non-retryable response") })
	if _, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: "drone-999"}); err == nil {
		t.Fatal("404 did not surface an error")
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Errorf("server saw %d requests, want 1", got)
	}
}

// TestClientReusesConnectionAcrossRetries: retried responses must have
// their bodies drained before close, or the Transport abandons the
// keep-alive connection and every retry pays a fresh TCP handshake.
func TestClientReusesConnectionAcrossRetries(t *testing.T) {
	fh := &flakyHandler{fails: 2, status: http.StatusServiceUnavailable,
		ok: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"droneId":"drone-1"}`))
		}}
	hs := httptest.NewUnstartedServer(fh)
	var conns int32
	hs.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			atomic.AddInt32(&conns, 1)
		}
	}
	hs.Start()
	defer hs.Close()

	c := NewHTTPAuditor(hs.URL, nil)
	c.SetRetryPolicy(RetryPolicy{Max: 2, Backoff: time.Millisecond})
	c.setSleep(func(time.Duration) {})
	if _, err := c.RegisterDrone(protocol.RegisterDroneRequest{}); err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if got := atomic.LoadInt32(&conns); got != 1 {
		t.Errorf("server saw %d connections across 3 attempts, want 1 (keep-alive reuse)", got)
	}
}

func TestStatusErrorShape(t *testing.T) {
	err := error(&StatusError{Path: "/v1/submit", Code: 421, Msg: "misrouted"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusMisdirectedRequest {
		t.Fatal("StatusError lost its code through errors.As")
	}
	if want := "auditor /v1/submit: misrouted (HTTP 421)"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	if want := "auditor /v1/submit: HTTP 500"; (&StatusError{Path: "/v1/submit", Code: 500}).Error() != want {
		t.Errorf("bodyless Error() mismatch")
	}
}
