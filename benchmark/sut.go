package main

// sut.go is the only file of the harness that touches repro/internal/...
// Every symbol used here is the surface a later PR must keep compiling
// (see README.md "Adapter surface"); the rest of the harness sees the
// system under test through the small functions and types below.

import (
	"bytes"
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/auditor"
	"repro/internal/geo"
	"repro/internal/gps"
	"repro/internal/obs"
	otrace "repro/internal/obs/trace"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/tee"
	"repro/internal/trace"
	"repro/internal/zone"
)

const (
	suiteRSA1024 = "rsa1024"
	suiteEd25519 = "ed25519"

	verdictCompliant  = string(protocol.VerdictCompliant)
	verdictDisclosure = string(protocol.VerdictDisclosureRequired)
)

// ---- geometry --------------------------------------------------------

func toGeo(p latLon) geo.LatLon { return geo.LatLon{Lat: p.Lat, Lon: p.Lon} }

func toCircle(c circle) geo.GeoCircle { return geo.GeoCircle{Center: toGeo(c.Center), R: c.R} }

func toRect(r rect) geo.Rect {
	return geo.Rect{MinLat: r.MinLat, MinLon: r.MinLon, MaxLat: r.MaxLat, MaxLon: r.MaxLon}
}

// offset moves p by meters along a bearing, on the program's own sphere.
func offset(p latLon, bearingDeg, meters float64) latLon {
	q := toGeo(p).Offset(bearingDeg, meters)
	return latLon{Lat: q.Lat, Lon: q.Lon}
}

// zoneInRect is the registry's documented rectangle-query rule, applied
// by the generator to know every zone query's answer beforehand.
func zoneInRect(r rect, z circle) bool {
	return toRect(r).Expand(z.R).Contains(toGeo(z.Center))
}

// groundMarginM widens the navigation area a drone asks zones for.
const groundMarginM = 100

// ---- tracing tap -----------------------------------------------------

// tap is the traced run's collection point: one tracer shared by the
// harness wrappers and the program's own spans, one metrics registry for
// the counters the program already keeps. A nil *tap is the untraced run:
// no wrapper is installed and every method is a no-op.
type tap struct {
	tracer *otrace.Tracer
	reg    *obs.Registry
	sink   *spanSink
}

func newTap() *tap {
	t := &tap{reg: obs.NewRegistry(nil), sink: &spanSink{}}
	// Span IDs only need to be distinct within one run; a seeded PRNG
	// keeps ID generation off the measured path's entropy syscalls.
	t.tracer = otrace.New(otrace.Options{Sample: 1, Sink: sinkAdapter{t.sink}, Rand: rand.New(rand.NewSource(1))})
	return t
}

// sinkAdapter converts the program's span records into the harness's
// compact form as they finish.
type sinkAdapter struct{ s *spanSink }

func (a sinkAdapter) Collect(r otrace.SpanRecord) {
	sp := span{name: r.Name, start: r.Start.UnixNano(), end: r.End.UnixNano(), failed: r.Error != ""}
	sp.id, _ = parseID(r.SpanID)
	sp.parent, _ = parseID(r.Parent)
	for _, at := range r.Attrs {
		switch at.K {
		case "drone":
			sp.drone = at.V
		case "transport":
			sp.wire = at.V == "wire"
		}
	}
	a.s.add(sp)
}

func parseID(s string) (uint64, error) {
	if s == "" {
		return 0, nil
	}
	id, err := otrace.ParseSpanID(s)
	if err != nil {
		return 0, err
	}
	var v uint64
	for _, b := range id {
		v = v<<8 | uint64(b)
	}
	return v, nil
}

// span starts a harness span under ctx. The returned func ends it.
func (t *tap) span(ctx context.Context, name string, attrs ...string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	ctx, sp := t.tracer.StartSpan(ctx, name)
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.SetAttr(attrs[i], attrs[i+1])
	}
	return ctx, sp.End
}

func (t *tap) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

func (t *tap) tracerOrNil() *otrace.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// counters sums the registry's series by family: counters as counts,
// histograms as their total seconds (suffix "_sum").
func (t *tap) counters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := t.reg.WriteText(&buf); err != nil {
		return nil, err
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		return nil, err
	}
	family := func(series string) string {
		if i := strings.IndexByte(series, '{'); i >= 0 {
			return series[:i]
		}
		return series
	}
	out := make(map[string]float64)
	for name, v := range exp.Counters {
		out[family(name)] += float64(v)
	}
	for name, h := range exp.Histograms {
		out[family(name)+"_sum"] += h.Sum
	}
	return out, nil
}

// Families the per-layer report reads (all kept by the program already).
const (
	famRetries       = operator.MetricRetryAttemptsTotal
	famWireSubmits   = operator.MetricWireClientSubmitsTotal
	famWireFlushes   = operator.MetricWireClientFlushesTotal
	famWireFrames    = auditor.MetricWireFramesTotal
	famWireAcks      = auditor.MetricWireAcksTotal
	famShed          = auditor.MetricAdmissionShedTotal
	famWALErrors     = auditor.MetricWALErrorsTotal
	famAppends       = storage.MetricWALAppendsTotal
	famWALBytes      = storage.MetricWALBytesTotal
	famFsyncs        = storage.MetricFsyncsTotal
	famCompactions   = storage.MetricCompactionsTotal
	famCompactionSum = storage.MetricCompactionSeconds + "_sum"
)

// ---- auditor side ----------------------------------------------------

// auditorEnv is one running auditor: server on a file store with fsync
// on, HTTP door and (when asked) the binary door, each on its own
// loopback listener owned by the harness.
type auditorEnv struct {
	dir     string
	store   *storage.FileStore
	srv     *auditor.Server
	httpLis *countingListener
	wireLis *countingListener
	httpSrv *http.Server
	wireSrv *auditor.WireServer
	served  sync.WaitGroup
}

// backendTap records auditor.serve around the doors the workloads use.
// Embedding *auditor.Server keeps every other Backend method (and the
// wire door's connection accounting) as is.
type backendTap struct {
	*auditor.Server
	t *tap
}

func (b backendTap) SubmitPoACtx(ctx context.Context, req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	ctx, end := b.t.span(ctx, spanServe, "drone", req.DroneID)
	defer end()
	return b.Server.SubmitPoACtx(ctx, req)
}

func (b backendTap) SubmitCommitPoACtx(ctx context.Context, req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	ctx, end := b.t.span(ctx, spanServe, "drone", req.DroneID)
	defer end()
	return b.Server.SubmitCommitPoACtx(ctx, req)
}

func (b backendTap) OpenStream(req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error) {
	// The HTTP handler drops the request context on this door, so the
	// span is stitched to its flight by drone id afterwards.
	_, end := b.t.span(context.Background(), spanServe, "drone", req.DroneID)
	defer end()
	return b.Server.OpenStream(req)
}

func (b backendTap) StreamSampleCtx(ctx context.Context, req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error) {
	ctx, end := b.t.span(ctx, spanServe)
	defer end()
	return b.Server.StreamSampleCtx(ctx, req)
}

func (b backendTap) CloseStreamCtx(ctx context.Context, req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	ctx, end := b.t.span(ctx, spanServe)
	defer end()
	return b.Server.CloseStreamCtx(ctx, req)
}

func (b backendTap) ZoneQueryCtx(ctx context.Context, req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	ctx, end := b.t.span(ctx, spanServe, "drone", req.DroneID)
	defer end()
	return b.Server.ZoneQueryCtx(ctx, req)
}

func (b backendTap) HandleAccusationCtx(ctx context.Context, droneID, zoneID string, at time.Time) (protocol.SubmitPoAResponse, error) {
	ctx, end := b.t.span(ctx, spanServe, "drone", droneID)
	defer end()
	return b.Server.HandleAccusationCtx(ctx, droneID, zoneID, at)
}

// storeTap records storage.append under whatever span the WAL commit
// carries in its context.
type storeTap struct {
	storage.Store
	t *tap
}

func (s storeTap) Append(ctx context.Context, recs ...storage.Record) error {
	ctx, end := s.t.span(ctx, spanAppend)
	defer end()
	return s.Store.Append(ctx, recs...)
}

// openAuditor opens (or recovers) the server on dir with product
// defaults; only the observability hooks differ on a traced run.
func openAuditor(dir string, t *tap) (*storage.FileStore, *auditor.Server, error) {
	fs, err := storage.OpenFileStore(dir, storage.Options{Metrics: t.registry()})
	if err != nil {
		return nil, nil, err
	}
	var st storage.Store = fs
	if t != nil {
		st = storeTap{Store: fs, t: t}
	}
	srv, err := auditor.OpenServer(auditor.Config{Metrics: t.registry(), Tracer: t.tracerOrNil()}, st, "")
	if err != nil {
		_ = fs.Close()
		return nil, nil, err
	}
	return fs, srv, nil
}

func startAuditor(dir string, withWire bool, t *tap) (*auditorEnv, error) {
	fs, srv, err := openAuditor(dir, t)
	if err != nil {
		return nil, err
	}
	a := &auditorEnv{dir: dir, store: fs, srv: srv}
	var backend auditor.Backend = srv
	var wireBackend auditor.WireBackend = srv
	if t != nil {
		bt := backendTap{Server: srv, t: t}
		backend, wireBackend = bt, bt
	}
	if a.httpLis, err = listenLoopback(); err != nil {
		_ = fs.Close()
		return nil, err
	}
	a.httpSrv = &http.Server{Handler: auditor.NewHandler(backend)}
	a.served.Add(1)
	go func() {
		defer a.served.Done()
		_ = a.httpSrv.Serve(a.httpLis) // returns ErrServerClosed on stop
	}()
	if withWire {
		if a.wireLis, err = listenLoopback(); err != nil {
			_ = a.stop()
			return nil, err
		}
		a.wireSrv = auditor.NewWireServer(wireBackend, auditor.WireOptions{})
		a.served.Add(1)
		go func() {
			defer a.served.Done()
			_ = a.wireSrv.Serve(a.wireLis) // returns nil on stop
		}()
	}
	return a, nil
}

// stop shuts the doors, waits for their goroutines and closes the store.
func (a *auditorEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := a.httpSrv.Shutdown(ctx)
	if a.wireSrv != nil {
		err = errors.Join(err, a.wireSrv.Close())
	}
	a.served.Wait()
	return errors.Join(err, a.store.Close())
}

func (a *auditorEnv) httpURL() string { return "http://" + a.httpLis.Addr().String() }

// wireBytes is what crossed the auditor's listeners so far, per door and
// direction.
func (a *auditorEnv) wireBytes() wireCount {
	c := wireCount{httpUp: a.httpLis.in.Load(), httpDown: a.httpLis.out.Load()}
	if a.wireLis != nil {
		c.wireUp, c.wireDown = a.wireLis.in.Load(), a.wireLis.out.Load()
	}
	return c
}

// registerZone preloads one zone and returns its issued id.
func (a *auditorEnv) registerZone(z circle) (string, error) {
	resp, err := a.srv.RegisterZone(protocol.RegisterZoneRequest{Owner: "bench", Zone: toCircle(z), OwnershipProof: "bench"})
	return resp.ZoneID, err
}

// retained is how many flights the server holds for accusations: full
// proofs plus commitments.
func retained(srv *auditor.Server) int {
	st := srv.Status()
	return st.RetainedPoAs + st.Commitments
}

// errNoProof is the auditor's answer to an accusation no retained proof
// covers.
var errNoProof = auditor.ErrNoPoA

// accuseDirect files an accusation on a server in process (the recovery
// check has no doors open) and returns the verdict.
func accuseDirect(srv *auditor.Server, droneID, zoneID string, at time.Time) (string, error) {
	resp, err := srv.HandleAccusation(droneID, zoneID, at)
	return string(resp.Verdict), err
}

// queryRectDirect times the zone layer alone: the registry's rectangle
// query without any door in front of it.
func (a *auditorEnv) queryRectDirect(r rect) int { return len(a.srv.Zones().QueryRect(toRect(r))) }

// ---- drone side ------------------------------------------------------

// station is one ground station: the client connection(s) its drones
// share. Product defaults: a keep-alive HTTP client of its own and, on
// the wire workload, a WireAuditor with default batching.
type station struct {
	http *operator.HTTPAuditor
	wire *operator.WireAuditor
	tr   *http.Transport
	pub  *rsa.PublicKey // the auditor's envelope-encryption key
}

func newStation(a *auditorEnv, t *tap) (*station, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	s := &station{tr: tr, http: operator.NewHTTPAuditor(a.httpURL(), &http.Client{Transport: tr})}
	if t != nil {
		s.http.SetTracer(t.tracer)
		s.http.SetMetrics(t.reg)
	}
	if a.wireLis != nil {
		s.wire = operator.NewWireAuditor(s.http, a.wireLis.Addr().String(), operator.WireClientOptions{Metrics: t.registry()})
	}
	var err error
	s.pub, err = s.http.FetchEncryptionPub()
	return s, err
}

func (s *station) api() protocol.API {
	if s.wire != nil {
		return s.wire
	}
	return s.http
}

func (s *station) close() {
	if s.wire != nil {
		_ = s.wire.Close()
	}
	s.tr.CloseIdleConnections()
}

// accuse files one accusation and reports whether the outcome is the
// expected one: compliant, or 404 for an instant no proof covers.
func (s *station) accuse(ctx context.Context, droneID, zoneID string, at time.Time, wantCompliant bool) error {
	resp, err := s.http.WithContext(ctx).Accuse(protocol.AccusationRequest{DroneID: droneID, ZoneID: zoneID, At: at})
	var se *operator.StatusError
	switch {
	case wantCompliant && err == nil && resp.Verdict == protocol.VerdictCompliant:
		return nil
	case !wantCompliant && errors.As(err, &se) && se.Code == http.StatusNotFound:
		return nil
	case err != nil:
		return fmt.Errorf("accuse %s at %s: %w", droneID, at.Format(time.RFC3339), err)
	}
	return fmt.Errorf("accuse %s at %s: verdict %s (%s)", droneID, at.Format(time.RFC3339), resp.Verdict, resp.Reason)
}

// disclosure modes a workload flies under.
type flyMode int

const (
	modeFull flyMode = iota
	modeCommit
	modeStream
)

// drone is one aircraft: TEE device, swappable GPS source and the
// operator client, flying many flights on one registration.
type drone struct {
	d     *operator.Drone
	dev   *tee.Device
	gps   *swapGPS
	mode  flyMode
	zones []geo.GeoCircle
	t     *tap
	// cur is the span context of the op in flight: the wrappers below are
	// reached through calls that carry no context of their own.
	cur context.Context
	// envelope is the size of the last ciphertext that went through the
	// api tap (the commit door builds its ciphertext inside the client).
	envelope int
	tapped   bool
}

// swapGPS is the secure-world GPS source the sampler TA reads. The TA is
// installed once per device, so the harness swaps the receiver behind it
// for every flight; on a traced run each read is a gps.fix span.
type swapGPS struct {
	inner *gps.Driver
	d     *drone
}

func (s *swapGPS) GetGPS(now time.Time) (gps.Fix, error) {
	_, end := s.d.t.span(s.d.cur, spanFix)
	defer end()
	return s.inner.GetGPS(now)
}

func (s *swapGPS) GetGPS3D(now time.Time) (gps.Fix, error) {
	_, end := s.d.t.span(s.d.cur, spanFix)
	defer end()
	return s.inner.GetGPS3D(now)
}

// newDrone manufactures, registers and briefs one drone: TEE key from the
// plan's key seed, registration through the given client, and one signed
// zone query over the ground between a and b. onSample, when set, hears
// every StreamSample round trip.
func newDrone(api protocol.API, auditorPub *rsa.PublicKey, dp dronePlan, mode flyMode, a, b latLon, t *tap, onSample func(timed)) (*drone, error) {
	vault, err := tee.ManufactureSuiteVault(rand.New(rand.NewSource(dp.KeySeed)), dp.Suite)
	if err != nil {
		return nil, err
	}
	clock := tee.NewSimClock(epoch)
	dr := &drone{dev: tee.NewDevice(clock, vault), mode: mode, t: t, cur: context.Background()}
	dr.gps = &swapGPS{d: dr}
	if _, err := tee.NewGPSSampler(dr.dev, dr.gps, nil); err != nil {
		return nil, err
	}
	if t != nil || onSample != nil {
		_, wire := api.(*operator.WireAuditor)
		api = &apiTap{d: dr, inner: api, wire: wire, onSample: onSample}
		dr.tapped = true
	}
	if dr.d, err = operator.NewDrone(api, auditorPub, dr.dev, clock, sigcrypto.KeySize1024, nil); err != nil {
		return nil, err
	}
	if mode == modeCommit {
		if err := dr.d.SetDisclosure(poa.DisclosureCommit); err != nil {
			return nil, err
		}
	}
	if err := dr.d.Register(); err != nil {
		return nil, err
	}
	zones, err := dr.d.QueryZones(geo.NewRect(toGeo(a), toGeo(b)).Expand(groundMarginM))
	if err != nil {
		return nil, err
	}
	dr.zones = zone.Circles(zones)
	return dr, nil
}

// newDrone is newDrone through this ground station's client.
func (s *station) newDrone(dp dronePlan, mode flyMode, a, b latLon, t *tap, onSample func(timed)) (*drone, error) {
	return newDrone(s.api(), s.pub, dp, mode, a, b, t, onSample)
}

// newPreloadDrone is newDrone against the server in process: no door, no
// tap. Set-up uses it to retain flights cheaply.
func (a *auditorEnv) newPreloadDrone(dp dronePlan, from, to latLon) (*drone, error) {
	return newDrone(a.srv, a.srv.EncryptionPub(), dp, modeStream, from, to, nil, nil)
}

func (d *drone) id() string { return d.d.ID() }

// queryZones is the drone's signed pre-flight zone query; it returns the
// ids the auditor answered with.
func (d *drone) queryZones(ctx context.Context, r rect) ([]string, error) {
	d.cur = ctx
	zs, err := d.d.QueryZones(toRect(r))
	ids := make([]string, len(zs))
	for i, z := range zs {
		ids[i] = z.ID
	}
	return ids, err
}

// proof is what one flight leaves on the drone, ready to submit.
type proof struct {
	samples  int
	full     poa.PoA
	commit   privacy.CommitEnvelope
	streamed protocol.SubmitPoAResponse
}

// fly runs one flight's sampler against the TEE. ctx carries the
// harness's operator.fly span on a traced run.
func (d *drone) fly(ctx context.Context, f flightSpec) (proof, error) {
	route, err := trace.ConstantSpeedLine(toGeo(f.Start), f.BearingDeg, f.SpeedMS, f.T0, f.Dur)
	if err != nil {
		return proof{}, err
	}
	rx, err := gps.NewReceiver(route, f.RateHz)
	if err != nil {
		return proof{}, err
	}
	d.gps.inner, d.cur = gps.NewDriver(rx), ctx
	switch d.mode {
	case modeCommit:
		env, run, err := d.d.FlyCommit(rx, d.zones, route.End())
		if err != nil {
			return proof{}, err
		}
		return proof{samples: run.PoA.Len(), commit: env}, nil
	case modeStream:
		res, err := d.d.FlyAdaptiveStreaming(rx, d.zones, route.End())
		if err != nil {
			return proof{}, err
		}
		if res.ViolationAt >= 0 {
			return proof{}, fmt.Errorf("stream flagged sample %d: %s", res.ViolationAt, res.Final.Reason)
		}
		return proof{samples: res.Run.PoA.Len(), streamed: res.Final}, nil
	default:
		run, err := d.d.FlyAdaptive(rx, d.zones, route.End())
		if err != nil {
			return proof{}, err
		}
		return proof{samples: run.PoA.Len(), full: run.PoA}, nil
	}
}

// submit takes a landed flight to its verdict: envelope encryption where
// the mode has one, then the submission. It returns the verdict and the
// ciphertext that was acknowledged (nil when the mode has none or the
// client builds it internally).
func (d *drone) submit(ctx context.Context, p proof) (verdict string, reason string, ct []byte, err error) {
	var resp protocol.SubmitPoAResponse
	switch d.mode {
	case modeCommit:
		resp, err = d.d.SubmitCommitPoACtx(ctx, p.commit)
	case modeStream:
		resp = p.streamed
	default:
		if ct, err = d.d.EncryptPoA(p.full); err == nil {
			resp, err = d.d.SubmitCtx(ctx, ct)
		}
	}
	return string(resp.Verdict), resp.Reason, ct, err
}

// resubmit replays an acknowledged full-mode ciphertext; the auditor must
// answer with a replay violation.
func (d *drone) resubmit(ct []byte) error {
	resp, err := d.d.Submit(ct)
	if err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	if resp.Verdict != protocol.VerdictViolation || !strings.Contains(resp.Reason, "replayed") {
		return fmt.Errorf("replay probe: verdict %s (%s), want a replay violation", resp.Verdict, resp.Reason)
	}
	return nil
}

// resubmitCommit replays a commit envelope (re-encrypted: the replay
// digest is over the plaintext, so fresh padding must not help).
func (d *drone) resubmitCommit(p proof) error {
	resp, err := d.d.SubmitCommitPoA(p.commit)
	if err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	if resp.Verdict != protocol.VerdictViolation || !strings.Contains(resp.Reason, "replayed") {
		return fmt.Errorf("replay probe: verdict %s (%s), want a replay violation", resp.Verdict, resp.Reason)
	}
	return nil
}

// envelopeBytes is the size of the flight's last ciphertext: seen by the
// api tap when there is one, else the one submit handed back.
func (d *drone) envelopeBytes(ct []byte) int {
	if d.tapped {
		return d.envelope
	}
	return len(ct)
}

// teeCounters returns the device's cumulative signature and world-switch
// counts.
func (d *drone) teeCounters() (signs, smc uint64) {
	st := d.dev.Snapshot()
	return st.Signs, st.SMCCalls
}

// apiTap stands between one drone and its station's client. On a traced
// run it records operator.call around every door; on the untraced stream
// workload it only times StreamSample, the one verdict the harness cannot
// see from outside Drone.FlyAdaptiveStreaming.
type apiTap struct {
	d        *drone
	inner    protocol.API
	bound    context.Context // set by BindContext
	wire     bool            // submissions ride the binary door
	onSample func(timed)
}

var (
	_ protocol.API           = (*apiTap)(nil)
	_ protocol.StreamAPI     = (*apiTap)(nil)
	_ protocol.DisclosureAPI = (*apiTap)(nil)
	_ protocol.ContextBinder = (*apiTap)(nil)
)

func (a *apiTap) BindContext(ctx context.Context) protocol.API {
	b := *a
	b.bound = ctx
	return &b
}

// call opens operator.call under the bound or current-flight context and
// hands back the station client bound to it.
func (a *apiTap) call(door string, overWire bool) (protocol.API, func()) {
	ctx := a.bound
	if ctx == nil {
		ctx = a.d.cur
	}
	transport := "http"
	if overWire && a.wire {
		transport = "wire"
	}
	ctx, end := a.d.t.span(ctx, spanCall, "door", door, "transport", transport)
	return protocol.BindContext(ctx, a.inner), end
}

func (a *apiTap) RegisterDrone(req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	return a.inner.RegisterDrone(req)
}

func (a *apiTap) RegisterZone(req protocol.RegisterZoneRequest) (protocol.RegisterZoneResponse, error) {
	return a.inner.RegisterZone(req)
}

func (a *apiTap) ZoneQuery(req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	api, end := a.call("zone-query", false)
	defer end()
	return api.ZoneQuery(req)
}

func (a *apiTap) SubmitPoA(req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	api, end := a.call("submit-poa", true)
	defer end()
	a.d.envelope = len(req.EncryptedPoA)
	return api.SubmitPoA(req)
}

func (a *apiTap) SubmitCommitPoA(req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	api, end := a.call("submit-commit-poa", true)
	defer end()
	a.d.envelope = len(req.EncryptedEnvelope)
	return api.(protocol.DisclosureAPI).SubmitCommitPoA(req)
}

func (a *apiTap) SubmitSealedPoA(req protocol.SubmitSealedPoARequest) (protocol.SubmitPoAResponse, error) {
	return a.inner.(protocol.DisclosureAPI).SubmitSealedPoA(req)
}

func (a *apiTap) Reveal(req protocol.RevealRequest) (protocol.SubmitPoAResponse, error) {
	return a.inner.(protocol.DisclosureAPI).Reveal(req)
}

func (a *apiTap) OpenStream(req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error) {
	api, end := a.call("stream-open", false)
	defer end()
	return api.(protocol.StreamAPI).OpenStream(req)
}

func (a *apiTap) StreamSample(req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error) {
	start := time.Now()
	api, end := a.call("stream-sample", false)
	resp, err := api.(protocol.StreamAPI).StreamSample(req)
	end()
	if a.onSample != nil && err == nil {
		now := time.Now()
		a.onSample(timed{d: now.Sub(start), end: now})
	}
	return resp, err
}

func (a *apiTap) CloseStream(req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	api, end := a.call("stream-close", false)
	defer end()
	return api.(protocol.StreamAPI).CloseStream(req)
}

// listenLoopback opens a counting listener on the host loopback.
func listenLoopback() (*countingListener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: lis}, nil
}
