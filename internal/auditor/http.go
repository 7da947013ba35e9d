package auditor

import (
	"bytes"
	"context"
	"crypto/rsa"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	otrace "repro/internal/obs/trace"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/zone"
)

// compile-time check: the server implements the protocol surface,
// including the optional key-rotation extension.
var (
	_ protocol.API         = (*Server)(nil)
	_ protocol.RotationAPI = (*Server)(nil)
	_ Backend              = (*Server)(nil)
)

// Backend is the verification surface the HTTP transport serves: every
// protocol endpoint plus the operational introspection the handler
// mounts next to them. A single-node *Server implements it directly;
// the cluster *Router implements it by routing each call to the owning
// shard — local or remote — so the transport layer is identical either
// way. This interface IS the tentpole refactor: "one Server = one
// shard", with everything above it backend-agnostic.
type Backend interface {
	RegisterDroneCtx(ctx context.Context, req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error)
	RegisterZone(req protocol.RegisterZoneRequest) (protocol.RegisterZoneResponse, error)
	RegisterPolygonZone(req protocol.RegisterPolygonZoneRequest) (protocol.RegisterZoneResponse, error)
	ZoneQueryCtx(ctx context.Context, req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error)
	SubmitPoACtx(ctx context.Context, req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error)
	SubmitBatchPoACtx(ctx context.Context, req protocol.SubmitBatchPoARequest) (protocol.SubmitPoAResponse, error)
	StartSession(req protocol.StartSessionRequest) (protocol.StartSessionResponse, error)
	SubmitMACPoACtx(ctx context.Context, req protocol.SubmitMACPoARequest) (protocol.SubmitPoAResponse, error)
	SubmitSealedPoACtx(ctx context.Context, req protocol.SubmitSealedPoARequest) (protocol.SubmitPoAResponse, error)
	SubmitCommitPoACtx(ctx context.Context, req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error)
	RevealCtx(ctx context.Context, req protocol.RevealRequest) (protocol.SubmitPoAResponse, error)
	RotateKeyCtx(ctx context.Context, req protocol.RotateKeyRequest) (protocol.RotateKeyResponse, error)
	OpenStream(req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error)
	StreamSampleCtx(ctx context.Context, req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error)
	CloseStreamCtx(ctx context.Context, req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error)
	HandleAccusationCtx(ctx context.Context, droneID, zoneID string, at time.Time) (protocol.SubmitPoAResponse, error)
	EncryptionPub() *rsa.PublicKey
	Zones() *zone.Registry
	Status() protocol.StatusResponse
	Metrics() *obs.Registry
	Tracer() *otrace.Tracer
	// Ready distinguishes liveness from readiness: nil once the backend
	// can serve verdicts (shards recovered, ring joined). A bare Server
	// is ready as soon as it exists — recovery happens in OpenServer
	// before anything can reach it.
	Ready() error
}

// HandlerOptions configures the operational side of the HTTP transport.
// The zero value mounts the bare protocol surface.
type HandlerOptions struct {
	// Collector, when set, is mounted at PathDebugTraces for JSONL trace
	// dumps. It should be the same collector the server's Tracer sinks to.
	Collector *otrace.RingCollector
	// Logger receives the handler's structured log lines (slow requests).
	// Nil disables them.
	Logger *olog.Logger
	// Slow is the latency threshold above which a request is logged with
	// its trace ID (the slow-request log). Zero disables it.
	Slow time.Duration
}

// Handler exposes a Backend over HTTP with JSON bodies. Register it on
// any mux or serve it directly. The same handler fronts a single-node
// Server and a cluster Router; routing is the backend's concern.
type Handler struct {
	srv  Backend
	mux  *http.ServeMux
	opts HandlerOptions

	// Readiness transition log, once per flip: probes hit /readyz every
	// few seconds, so logging every 503 would drown the reason the line
	// exists — pinpointing *when* a node fell out of (or came back into)
	// rotation and why.
	readyMu    sync.Mutex
	readyKnown bool
	readyOK    bool
}

var _ http.Handler = (*Handler)(nil)

// NewHandler wraps a backend with default (zero) options.
func NewHandler(srv Backend) *Handler {
	return NewHandlerOpts(srv, HandlerOptions{})
}

// NewHandlerOpts wraps a backend with explicit operational options.
func NewHandlerOpts(srv Backend, opts HandlerOptions) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux(), opts: opts}
	h.handle(protocol.PathRegisterDrone, postDoor(srv.RegisterDroneCtx))
	h.handle(protocol.PathRegisterZone, postDoor(dropCtx(srv.RegisterZone)))
	h.handle(protocol.PathRegisterPolygonZone, postDoor(dropCtx(srv.RegisterPolygonZone)))
	h.handle(protocol.PathZoneQuery, postDoor(srv.ZoneQueryCtx))
	h.handle(protocol.PathSubmitPoA, postDoor(srv.SubmitPoACtx))
	h.handle(protocol.PathSubmitBatchPoA, postDoor(srv.SubmitBatchPoACtx))
	h.handle(protocol.PathStartSession, postDoor(dropCtx(srv.StartSession)))
	h.handle(protocol.PathSubmitMACPoA, postDoor(srv.SubmitMACPoACtx))
	h.handle(protocol.PathSubmitSealedPoA, postDoor(srv.SubmitSealedPoACtx))
	h.handle(protocol.PathSubmitCommitPoA, postDoor(srv.SubmitCommitPoACtx))
	h.handle(protocol.PathReveal, postDoor(srv.RevealCtx))
	h.handle(protocol.PathAccuse, postDoor(func(ctx context.Context, req protocol.AccusationRequest) (protocol.SubmitPoAResponse, error) {
		return srv.HandleAccusationCtx(ctx, req.DroneID, req.ZoneID, req.At)
	}))
	h.handle(protocol.PathRotateKey, postDoor(srv.RotateKeyCtx))
	h.handle(protocol.PathStreamOpen, postDoor(dropCtx(srv.OpenStream)))
	h.handle(protocol.PathStreamSample, postDoor(srv.StreamSampleCtx))
	h.handle(protocol.PathStreamClose, postDoor(srv.CloseStreamCtx))
	h.handle(protocol.PathAuditorPub, h.auditorPub)
	h.handle(protocol.PathPublicZones, get(h.publicZones))
	h.handle(protocol.PathStatus, get(h.status))
	h.mux.HandleFunc(PathMetrics, get(h.metrics))
	h.mux.HandleFunc(PathHealthz, get(h.healthz))
	h.mux.HandleFunc(PathReadyz, get(h.readyz))
	if opts.Collector != nil {
		h.mux.Handle(PathDebugTraces, opts.Collector)
	}
	if cb, ok := srv.(clusterBackend); ok {
		h.registerClusterRoutes(cb)
	}
	return h
}

// handle registers an endpoint wrapped in the per-endpoint request
// counter and latency histogram, the server-side trace span — continuing
// the submitter's trace when the request carries a traceparent header —
// and the slow-request log. The operational endpoints (/metrics,
// /healthz, /debug/traces) are registered bare so scrapes do not count
// as traffic.
func (h *Handler) handle(path string, fn http.HandlerFunc) {
	reg := h.srv.Metrics()
	tr := h.srv.Tracer()
	if reg == nil && tr == nil && h.opts.Slow <= 0 {
		h.mux.HandleFunc(path, fn)
		return
	}
	requests := reg.Counter(obs.L(MetricHTTPRequestsTotal, "path", path))
	latency := reg.Histogram(obs.L(MetricHTTPRequestSeconds, "path", path), obs.DurationBuckets)
	clock := reg.Clock()
	h.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		ctx, sp := tr.StartRemote(r.Context(), r.Header.Get(protocol.HeaderTraceParent), "auditor "+path)
		sp.SetAttr("path", path)
		if ctx != r.Context() {
			r = r.WithContext(ctx)
		}
		start := clock.Now()
		fn(w, r)
		dur := clock.Now().Sub(start)
		latency.Observe(dur.Seconds())
		sp.End()
		if h.opts.Slow > 0 && dur >= h.opts.Slow {
			h.opts.Logger.Warn(ctx, "slow request", "path", path, "ms", dur.Milliseconds())
		}
	})
}

// metrics serves the Prometheus text exposition of the server registry.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	reg := h.srv.Metrics()
	if reg == nil {
		http.Error(w, "metrics disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = reg.WriteText(w)
}

// healthz is the liveness probe: the server answers as soon as it serves.
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// readyz is the readiness probe: 200 once the backend can actually serve
// verdicts (shards recovered, ring joined), 503 with the reason until
// then. Liveness (/healthz) stays green the whole time so a slow-joining
// node is redialed, not restarted.
func (h *Handler) readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	err := h.srv.Ready()
	h.logReadyTransition(r.Context(), err)
	if err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("not ready: " + err.Error() + "\n"))
		return
	}
	_, _ = w.Write([]byte("ready\n"))
}

// logReadyTransition logs readiness flips exactly once per transition:
// the reason when the backend stops being ready, the recovery when it
// returns. Steady-state probes stay silent.
func (h *Handler) logReadyTransition(ctx context.Context, err error) {
	ok := err == nil
	h.readyMu.Lock()
	flipped := !h.readyKnown || h.readyOK != ok
	h.readyKnown, h.readyOK = true, ok
	h.readyMu.Unlock()
	if !flipped {
		return
	}
	if ok {
		h.opts.Logger.Info(ctx, "readiness: ready")
	} else {
		h.opts.Logger.Warn(ctx, "readiness: not ready", "reason", err.Error())
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(protocol.ForwardedHeader) != "" {
		// A peer already forwarded this request once; mark the context so
		// the backend raises ErrMisrouted instead of forwarding again.
		r = r.WithContext(withForwarded(r.Context()))
	}
	h.mux.ServeHTTP(w, r)
}

// forwardedCtxKey marks a request context as having crossed one
// node-to-node forward already (the single-hop guard's memory).
type forwardedCtxKey struct{}

// withForwarded marks ctx as belonging to an already-forwarded request.
func withForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, forwardedCtxKey{}, true)
}

// isForwarded reports whether the request behind ctx was already
// forwarded once between auditor nodes.
func isForwarded(ctx context.Context) bool {
	v, _ := ctx.Value(forwardedCtxKey{}).(bool)
	return v
}

// post and get restrict an endpoint to one method.
func post(fn http.HandlerFunc) http.HandlerFunc { return only(http.MethodPost, fn) }
func get(fn http.HandlerFunc) http.HandlerFunc  { return only(http.MethodGet, fn) }

func only(method string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		fn(w, r)
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// remoteError carries a peer's HTTP failure back through the node that
// forwarded to it, preserving the peer's status code so the client sees
// the same answer it would have gotten talking to the owner directly.
type remoteError struct {
	status int
	msg    string
}

func (e *remoteError) Error() string { return e.msg }

// statusFor maps server errors onto HTTP statuses.
func statusFor(err error) int {
	var rerr *remoteError
	switch {
	case errors.As(err, &rerr):
		return rerr.status
	case errors.Is(err, protocol.ErrMisrouted):
		// Routing disagreement past the single-hop guard: the client's
		// cluster map is stale; refresh and retry elsewhere.
		return http.StatusMisdirectedRequest
	case errors.Is(err, ErrUnknownDrone), errors.Is(err, ErrUnknownZone),
		errors.Is(err, ErrNoPoA), errors.Is(err, ErrUnknownSession),
		errors.Is(err, ErrUnknownStream), errors.Is(err, ErrUnknownChallenge):
		return http.StatusNotFound
	case errors.Is(err, protocol.ErrBadNonce), errors.Is(err, protocol.ErrBadSignature),
		errors.Is(err, sigcrypto.ErrBadHandover), errors.Is(err, ErrBadReveal),
		errors.Is(err, ErrDisclosureMismatch):
		return http.StatusForbidden
	case errors.Is(err, protocol.ErrOverloaded):
		// Load shed by the admission controller: nothing about the
		// submission was judged, the client should retry after backoff.
		return http.StatusTooManyRequests
	case isCtxErr(err):
		// The client went away (or timed out) mid-verification; nothing
		// was wrong with the request itself.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// maxRequestBytes bounds the body of a client-facing POST door. The
// largest legitimate body — a 600-sample full PoA, encrypted and base64'd
// into JSON — is about 270 KB; the wire door caps its frames at 1 MiB of
// raw bytes, which base64 would carry in 1.4 MiB.
const maxRequestBytes = 4 << 20

// postDoor turns a typed backend method into a client-facing door: POST
// only, a bounded body (413 past maxRequestBytes), JSON in and out. The
// cluster-internal doors call handleJSON directly: a shard handoff body is
// a whole snapshot and is exempt from the bound.
func postDoor[Req, Resp any](fn func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return post(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		handleJSON(w, r, fn)
	})
}

// handleJSON decodes the request, runs fn under the request context and
// encodes the response.
func handleJSON[Req, Resp any](w http.ResponseWriter, r *http.Request, fn func(context.Context, Req) (Resp, error)) {
	var req Req
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "malformed JSON: " + err.Error()})
		return
	}
	resp, err := fn(r.Context(), req)
	if err != nil {
		var over *protocol.OverloadedError
		if errors.As(err, &over) {
			secs := int(over.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set(protocol.RetryAfterHeader, strconv.Itoa(secs))
		}
		writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// dropCtx adapts a context-less server method to handleJSON's shape, for
// endpoints whose implementation has no context-aware work.
func dropCtx[Req, Resp any](fn func(Req) (Resp, error)) func(context.Context, Req) (Resp, error) {
	return func(_ context.Context, req Req) (Resp, error) { return fn(req) }
}

// respBufPool recycles response-encode buffers: encoding into a pooled
// buffer instead of the ResponseWriter both drops the per-response
// allocation and lets us set Content-Length, which keeps keep-alive
// framing cheap (no chunked encoding for these small bodies).
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer respBufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		// Nothing was written yet, so the failure is still reportable.
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// publicZones is the unauthenticated B4UFLY-style lookup:
// GET /v1/zones?lat=..&lon=..&radiusMeters=.. lists nearby no-fly zones so
// operators can check an area before filing a flight.
func (h *Handler) publicZones(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lat, err1 := strconv.ParseFloat(q.Get("lat"), 64)
	lon, err2 := strconv.ParseFloat(q.Get("lon"), 64)
	radius, err3 := strconv.ParseFloat(q.Get("radiusMeters"), 64)
	if err1 != nil || err2 != nil || err3 != nil || radius <= 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "need lat, lon and positive radiusMeters"})
		return
	}
	center := geo.LatLon{Lat: lat, Lon: lon}
	if !center.Valid() {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid coordinates"})
		return
	}
	rect := geo.NewRect(center, center).Expand(radius)
	writeJSON(w, http.StatusOK, protocol.ZoneQueryResponse{Zones: h.srv.Zones().QueryRect(rect)})
}

// status reports operational counters.
func (h *Handler) status(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.srv.Status())
}

// auditorPubResponse carries the Auditor's PoA-encryption public key.
type auditorPubResponse struct {
	EncryptionPub string `json:"encryptionPub"`
}

func (h *Handler) auditorPub(w http.ResponseWriter, r *http.Request) {
	pub, err := sigcrypto.MarshalPublicKey(h.srv.EncryptionPub())
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, auditorPubResponse{EncryptionPub: pub})
}
