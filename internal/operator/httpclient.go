package operator

import (
	"bytes"
	"context"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/zone"
)

// Metric names exported by the drone-side HTTP client.
const (
	// MetricClientRequestsTotal counts protocol calls per endpoint path
	// (one per logical call, not per retry attempt).
	MetricClientRequestsTotal = "alidrone_client_requests_total"
	// MetricClientRetriesTotal counts retry attempts per endpoint path.
	MetricClientRetriesTotal = "alidrone_client_retries_total"
	// MetricClientRequestSeconds is the per-endpoint latency histogram,
	// covering all attempts of a call including backoff.
	MetricClientRequestSeconds = "alidrone_client_request_seconds"
	// MetricRetryAttemptsTotal counts individual retry attempts per
	// endpoint path (same events as MetricClientRetriesTotal under the
	// retry-machinery name).
	MetricRetryAttemptsTotal = "alidrone_operator_retry_attempts_total"
	// MetricRetryExhaustedTotal counts calls that still failed after the
	// configured retry budget was spent.
	MetricRetryExhaustedTotal = "alidrone_operator_retry_exhausted_total"
)

// RetryPolicy controls the client's re-send behaviour on transport errors
// and gateway-style statuses (502/503/504). Backoff is the delay before
// the first retry and doubles on each subsequent one. The zero value
// disables retries.
//
// Note the submission endpoints are not strictly idempotent: a request
// the Auditor processed but whose response was lost resubmits a PoA the
// replay filter may then flag. The retry statuses are chosen so only
// responses produced *in front of* the Auditor (dead upstream, overload
// shedding) are retried.
type RetryPolicy struct {
	Max     int           // retries after the first attempt
	Backoff time.Duration // initial retry delay, doubling per retry
}

// HTTPAuditor is a protocol.API implementation that talks to a remote
// AliDrone Server over its HTTP transport.
type HTTPAuditor struct {
	base    string
	hc      *http.Client
	retry   RetryPolicy
	metrics *obs.Registry
	tracer  *otrace.Tracer
	ctx     context.Context // bound call context (nil = Background)
	sleep   func(time.Duration)
}

var (
	_ protocol.API           = (*HTTPAuditor)(nil)
	_ protocol.ContextBinder = (*HTTPAuditor)(nil)
)

// NewHTTPAuditor creates a client for the auditor at baseURL (no trailing
// slash). client defaults to http.DefaultClient.
func NewHTTPAuditor(baseURL string, client *http.Client) *HTTPAuditor {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPAuditor{base: baseURL, hc: client, sleep: time.Sleep}
}

// SetRetryPolicy enables transparent retries. Call before issuing
// requests.
func (c *HTTPAuditor) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// SetMetrics attaches a metrics registry (nil disables, the default).
func (c *HTTPAuditor) SetMetrics(reg *obs.Registry) { c.metrics = reg }

// SetTracer attaches a tracer: every call then runs under an
// "http.client <path>" span and the request carries the traceparent
// header, so the auditor continues the drone's trace.
func (c *HTTPAuditor) SetTracer(tr *otrace.Tracer) { c.tracer = tr }

// WithContext returns a shallow copy of the client whose calls run under
// ctx: requests are cancellable, backoff sleeps abort on cancellation,
// and the context's trace span propagates into the wire header. The
// receiver is not modified.
func (c *HTTPAuditor) WithContext(ctx context.Context) *HTTPAuditor {
	d := *c
	d.ctx = ctx
	return &d
}

// BindContext implements protocol.ContextBinder.
func (c *HTTPAuditor) BindContext(ctx context.Context) protocol.API { return c.WithContext(ctx) }

// callCtx resolves the bound call context.
func (c *HTTPAuditor) callCtx() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// setSleep replaces the backoff sleeper; tests inject a recorder so
// retry timing is observable without real delays.
func (c *HTTPAuditor) setSleep(fn func(time.Duration)) { c.sleep = fn }

// retryableStatus reports whether a status indicates the request likely
// never reached the Auditor's handler. 429 qualifies: the admission
// controller shed the request before any verification stage judged it.
// So does 421: a cluster node's single-hop guard refuses a forward that
// reached a non-owner before any stage runs, and a retry lands once the
// nodes' gossip agrees on the owner.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout || code == http.StatusTooManyRequests ||
		code == http.StatusMisdirectedRequest
}

// retryAfter extracts the server's Retry-After hint (integral seconds) from
// a shed response; zero means no usable hint.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	secs, err := strconv.Atoi(resp.Header.Get(protocol.RetryAfterHeader))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits for d or for ctx cancellation, whichever first. A
// context that cannot be cancelled uses the injected sleeper directly
// (tests record backoff timing through it).
func (c *HTTPAuditor) sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		c.sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do issues fn under the per-path metrics, the client span and the retry
// policy. fn must be repeatable (bodies are byte slices re-wrapped per
// attempt) and must issue its request under the given context.
func (c *HTTPAuditor) do(path string, fn func(ctx context.Context) (*http.Response, error)) (*http.Response, error) {
	reg := c.metrics
	reg.Counter(obs.L(MetricClientRequestsTotal, "path", path)).Inc()
	ctx, tsp := c.tracer.StartSpan(c.callCtx(), "http.client "+path)
	defer tsp.End()
	sp := reg.StartSpan(reg.Histogram(obs.L(MetricClientRequestSeconds, "path", path), obs.DurationBuckets))
	defer sp.End()

	backoff := c.retry.Backoff
	for attempt := 0; ; attempt++ {
		httpResp, err := fn(ctx)
		retryable := err != nil || retryableStatus(httpResp.StatusCode)
		if !retryable {
			tsp.SetError(err)
			tsp.SetInt("attempts", int64(attempt+1))
			return httpResp, err
		}
		if attempt >= c.retry.Max {
			if c.retry.Max > 0 {
				reg.Counter(obs.L(MetricRetryExhaustedTotal, "path", path)).Inc()
				tsp.Event("retries exhausted")
			}
			tsp.SetError(err)
			tsp.SetInt("attempts", int64(attempt+1))
			return httpResp, err
		}
		var hinted time.Duration
		if err == nil {
			hinted = retryAfter(httpResp)
			// Drain before closing: a body closed with bytes unread kills
			// the keep-alive connection, so every retry after a shed
			// response would pay a fresh TCP (and TLS) handshake.
			drainClose(httpResp.Body)
		}
		reg.Counter(obs.L(MetricClientRetriesTotal, "path", path)).Inc()
		reg.Counter(obs.L(MetricRetryAttemptsTotal, "path", path)).Inc()
		tsp.Event("retry")
		// A shed response's Retry-After hint overrides shorter local
		// backoff: the server knows how loaded it is better than the
		// client's doubling schedule does.
		wait := max(backoff, hinted)
		if wait > 0 {
			if serr := c.sleepCtx(ctx, wait); serr != nil {
				tsp.SetError(serr)
				return nil, serr
			}
			if backoff > 0 {
				backoff *= 2
			}
		}
	}
}

// newRequest builds one attempt's request under ctx, injecting the
// traceparent header when the context carries an active span.
func newRequest(ctx context.Context, method, url, contentType string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if h := otrace.HeaderFromContext(ctx); h != "" {
		req.Header.Set(protocol.HeaderTraceParent, h)
	}
	return req, nil
}

// encodeBufPool recycles request-encode and response-read buffers across
// calls, so the steady-state submit path allocates no fresh byte slices
// for transport framing (verified by BenchmarkSubmitPoAThroughput
// allocs/op).
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// StatusError is a non-200 response from the auditor: the status code
// plus the server's error body.
type StatusError struct {
	Path string // endpoint the call hit
	Code int    // HTTP status
	Msg  string // server error body, if any
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("auditor %s: %s (HTTP %d)", e.Path, e.Msg, e.Code)
	}
	return fmt.Sprintf("auditor %s: HTTP %d", e.Path, e.Code)
}

// drainClose reads a response body to EOF (bounded) before closing it.
// Go's HTTP transport only returns a connection to the keep-alive pool
// when the body was fully consumed; closing early forces a new
// connection for the next request. The bound keeps a misbehaving server
// from feeding us gigabytes just to save a dial.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 256<<10))
	_ = body.Close()
}

// FetchClusterStatus GETs one node's fleet-wide status snapshot
// (/cluster/status): the serving node aggregates every ring member's
// fragment, so any reachable node answers for the whole fleet. client
// defaults to http.DefaultClient.
func FetchClusterStatus(client *http.Client, base string) (protocol.ClusterStatusResponse, error) {
	if client == nil {
		client = http.DefaultClient
	}
	var st protocol.ClusterStatusResponse
	resp, err := client.Get(base + protocol.PathClusterStatus)
	if err != nil {
		return st, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return st, &StatusError{Path: protocol.PathClusterStatus, Code: resp.StatusCode}
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("cluster status from %s: %w", base, err)
	}
	return st, nil
}

// postJSON sends req to path — an envelope door's ciphertext raw, any
// other request as JSON (protocol.EncodeHTTPRequest) — and decodes the
// JSON response into resp.
func (c *HTTPAuditor) postJSON(path string, req, resp any) error {
	ebuf := encodeBufPool.Get().(*bytes.Buffer)
	ebuf.Reset()
	defer encodeBufPool.Put(ebuf)
	body, contentType, query, err := protocol.EncodeHTTPRequest(ebuf, req)
	if err != nil {
		return fmt.Errorf("marshal request: %w", err)
	}
	httpResp, err := c.do(path, func(ctx context.Context) (*http.Response, error) {
		hr, err := newRequest(ctx, http.MethodPost, c.base+path+query, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return c.hc.Do(hr)
	})
	if err != nil {
		return fmt.Errorf("post %s: %w", path, err)
	}
	defer drainClose(httpResp.Body)

	rbuf := encodeBufPool.Get().(*bytes.Buffer)
	rbuf.Reset()
	defer encodeBufPool.Put(rbuf)
	if _, err := rbuf.ReadFrom(httpResp.Body); err != nil {
		return fmt.Errorf("read %s response: %w", path, err)
	}
	data := rbuf.Bytes()
	if httpResp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(data, &eb)
		return &StatusError{Path: path, Code: httpResp.StatusCode, Msg: eb.Error}
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("decode %s response: %w", path, err)
	}
	return nil
}

// post is postJSON for one door's typed response.
func post[Resp any](c *HTTPAuditor, path string, req any) (Resp, error) {
	var resp Resp
	err := c.postJSON(path, req, &resp)
	return resp, err
}

// RegisterDrone implements protocol.API.
func (c *HTTPAuditor) RegisterDrone(req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	return post[protocol.RegisterDroneResponse](c, protocol.PathRegisterDrone, req)
}

// RegisterZone implements protocol.API.
func (c *HTTPAuditor) RegisterZone(req protocol.RegisterZoneRequest) (protocol.RegisterZoneResponse, error) {
	return post[protocol.RegisterZoneResponse](c, protocol.PathRegisterZone, req)
}

// ZoneQuery implements protocol.API.
func (c *HTTPAuditor) ZoneQuery(req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	return post[protocol.ZoneQueryResponse](c, protocol.PathZoneQuery, req)
}

// SubmitPoA implements protocol.API.
func (c *HTTPAuditor) SubmitPoA(req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathSubmitPoA, req)
}

var _ protocol.RotationAPI = (*HTTPAuditor)(nil)

// RotateKey implements protocol.RotationAPI.
func (c *HTTPAuditor) RotateKey(req protocol.RotateKeyRequest) (protocol.RotateKeyResponse, error) {
	return post[protocol.RotateKeyResponse](c, protocol.PathRotateKey, req)
}

var _ protocol.ModesAPI = (*HTTPAuditor)(nil)

// SubmitBatchPoA implements protocol.ModesAPI.
func (c *HTTPAuditor) SubmitBatchPoA(req protocol.SubmitBatchPoARequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathSubmitBatchPoA, req)
}

// StartSession implements protocol.ModesAPI.
func (c *HTTPAuditor) StartSession(req protocol.StartSessionRequest) (protocol.StartSessionResponse, error) {
	return post[protocol.StartSessionResponse](c, protocol.PathStartSession, req)
}

// SubmitMACPoA implements protocol.ModesAPI.
func (c *HTTPAuditor) SubmitMACPoA(req protocol.SubmitMACPoARequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathSubmitMACPoA, req)
}

var _ protocol.DisclosureAPI = (*HTTPAuditor)(nil)

// SubmitSealedPoA implements protocol.DisclosureAPI.
func (c *HTTPAuditor) SubmitSealedPoA(req protocol.SubmitSealedPoARequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathSubmitSealedPoA, req)
}

// SubmitCommitPoA implements protocol.DisclosureAPI.
func (c *HTTPAuditor) SubmitCommitPoA(req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathSubmitCommitPoA, req)
}

// Reveal implements protocol.DisclosureAPI.
func (c *HTTPAuditor) Reveal(req protocol.RevealRequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathReveal, req)
}

var _ protocol.StreamAPI = (*HTTPAuditor)(nil)

// OpenStream implements protocol.StreamAPI.
func (c *HTTPAuditor) OpenStream(req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error) {
	return post[protocol.OpenStreamResponse](c, protocol.PathStreamOpen, req)
}

// StreamSample implements protocol.StreamAPI.
func (c *HTTPAuditor) StreamSample(req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error) {
	return post[protocol.StreamSampleResponse](c, protocol.PathStreamSample, req)
}

// CloseStream implements protocol.StreamAPI.
func (c *HTTPAuditor) CloseStream(req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathStreamClose, req)
}

// Accuse files a Zone Owner incident report against a drone.
func (c *HTTPAuditor) Accuse(req protocol.AccusationRequest) (protocol.SubmitPoAResponse, error) {
	return post[protocol.SubmitPoAResponse](c, protocol.PathAccuse, req)
}

// getJSON GETs url under path's metrics and retries and decodes a 200
// response body into resp.
func (c *HTTPAuditor) getJSON(path, url string, resp any) error {
	httpResp, err := c.do(path, func(ctx context.Context) (*http.Response, error) {
		hr, err := newRequest(ctx, http.MethodGet, url, "", nil)
		if err != nil {
			return nil, err
		}
		return c.hc.Do(hr)
	})
	if err != nil {
		return err
	}
	defer drainClose(httpResp.Body)
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", httpResp.StatusCode)
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

// FetchPublicZones performs the unauthenticated B4UFLY-style lookup of
// no-fly zones within radiusMeters of a point.
func (c *HTTPAuditor) FetchPublicZones(center geo.LatLon, radiusMeters float64) ([]zone.NFZ, error) {
	url := fmt.Sprintf("%s%s?lat=%g&lon=%g&radiusMeters=%g",
		c.base, protocol.PathPublicZones, center.Lat, center.Lon, radiusMeters)
	var body protocol.ZoneQueryResponse
	if err := c.getJSON(protocol.PathPublicZones, url, &body); err != nil {
		return nil, fmt.Errorf("fetch public zones: %w", err)
	}
	return body.Zones, nil
}

// FetchEncryptionPub retrieves the Auditor's PoA-encryption public key.
func (c *HTTPAuditor) FetchEncryptionPub() (*rsa.PublicKey, error) {
	var body struct {
		EncryptionPub string `json:"encryptionPub"`
	}
	if err := c.getJSON(protocol.PathAuditorPub, c.base+protocol.PathAuditorPub, &body); err != nil {
		return nil, fmt.Errorf("fetch auditor pub: %w", err)
	}
	return sigcrypto.UnmarshalPublicKey(body.EncryptionPub)
}
