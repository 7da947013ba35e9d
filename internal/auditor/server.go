// Package auditor implements the AliDrone Server run by the authorized
// third party (e.g. a local FAA agent): the drone and NFZ registries, the
// zone query endpoint, and the Proof-of-Alibi verification pipeline
// (signature check → chronology → speed feasibility → sufficiency), plus
// the PoA retention store used to answer Zone Owner accusations after the
// fact (paper §IV-C2: "the AliDrone Server should save the PoAs for a
// couple of days").
//
// The verification hot path is parallel: per-sample signature and MAC
// checks fan out across a bounded worker pool shared by all requests (the
// sufficiency scan stays on the request's goroutine: at tens of
// nanoseconds per pair × zone there is nothing to shard), and the server
// state is split into independently locked stores so submissions from
// different drones never serialize on a global lock (see DESIGN.md
// "Concurrency architecture").
package auditor

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/auditor/pipeline"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	otrace "repro/internal/obs/trace"
	"repro/internal/parallel"
	"repro/internal/poa"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/zone"
)

var (
	// ErrUnknownDrone is returned for operations naming an unregistered
	// drone ID.
	ErrUnknownDrone = errors.New("auditor: unknown drone id")
	// ErrUnknownZone is returned for accusations naming an unregistered
	// zone ID.
	ErrUnknownZone = errors.New("auditor: unknown zone id")
	// ErrNoPoA is returned when an accusation concerns a drone with no
	// retained PoA covering the incident time.
	ErrNoPoA = errors.New("auditor: no retained PoA covers the incident time")
)

// DroneRecord is one registered drone: (id_drone, D+, T+). T+ is a key
// ring, not a single key: rotation appends successor epochs and the
// previous key enters its acceptance window (see rotation.go).
type DroneRecord struct {
	ID          string
	OperatorPub *rsa.PublicKey // D+: verifies zone-query nonces
	// Suite is the signature suite negotiated at registration; every key
	// in the ring (and every rotation) stays within it.
	Suite string
	// Disclosure is the disclosure mode negotiated at registration
	// (poa.DisclosureFull/Sealed/Commit); the server enforces it at every
	// submission door.
	Disclosure string
	// TEEKeys is the T+ key ring in epoch order; the last entry is active.
	TEEKeys []TEEKey
}

// retainedPoA is a verified submission kept for later accusations, and its
// own recPoARetained payload. Seq is assigned by the retention store when
// the PoA is first added; WAL replay uses it to skip records whose effect
// is already in a loaded snapshot.
type retainedPoA struct {
	DroneID    string       `json:"droneId"`
	Samples    []poa.Sample `json:"samples"`
	SubmitTime time.Time    `json:"submitTime"`
	Seq        uint64       `json:"seq,omitempty"`
}

// DefaultNonceTTL bounds the zone-query anti-replay cache: a nonce only
// needs to stay unique for as long as its signed query is plausibly in
// flight, not forever.
const DefaultNonceTTL = time.Hour

// Config parameterises the server.
type Config struct {
	// VMaxMS is the speed bound used in sufficiency checks (the FAA
	// 100 mph rule by default).
	VMaxMS float64
	// Mode selects the disjointness test for verification. The Auditor
	// defaults to the exact test: it is offline and can afford it.
	Mode poa.TestMode
	// EncKeyBits sizes the Auditor's PoA-encryption keypair.
	EncKeyBits int
	// Retention is how long verified PoAs are kept for accusations.
	Retention time.Duration
	// Workers sizes the verification worker pool shared by all parallel
	// stages (the per-sample signature and HMAC checks). 0
	// selects GOMAXPROCS; 1 reproduces the historical sequential
	// pipeline exactly — the paper-fidelity configuration.
	Workers int
	// NonceTTL is how long zone-query nonces are remembered for replay
	// rejection. 0 selects DefaultNonceTTL; negative disables expiry
	// (the cache then grows without bound — test use only).
	NonceTTL time.Duration
	// Random supplies entropy (crypto/rand.Reader when nil).
	Random io.Reader
	// Clock supplies time (obs.System when nil) so retention expiry is
	// deterministically testable.
	Clock obs.Clock
	// Metrics, when set, receives the verification-pipeline and
	// retention-store metrics. Nil disables instrumentation at the cost
	// of one pointer comparison per call.
	Metrics *obs.Registry
	// Tracer, when set, records distributed-tracing spans for the
	// verification pipeline and WAL commits, continuing traces started by
	// submitting drones (see internal/obs/trace). Nil disables tracing.
	Tracer *otrace.Tracer
	// SLO, when set, receives sliding-window verdict-latency and
	// shed-rate observations (see obs.SLO). A cluster router shares one
	// tracker across its shards so the node-level summary is coherent.
	// Nil disables SLO tracking.
	SLO *obs.SLO
	// CompactEvery is the number of WAL records between automatic
	// snapshot compactions when a storage engine is attached (see
	// OpenServer). 0 selects DefaultCompactEvery; negative disables
	// automatic compaction (explicit Checkpoint calls only).
	CompactEvery int
	// RotationWindow is how long a retired TEE key epoch keeps verifying
	// PoAs after rotation (flights that straddled the rotation land and
	// submit under the old key). 0 selects DefaultRotationWindow;
	// negative closes retired epochs immediately.
	RotationWindow time.Duration
	// AllowedSuites restricts the signature suites drones may register
	// with (e.g. ["rsa2048", "ed25519"]). Empty admits every registered
	// suite.
	AllowedSuites []string
	// AllowedDisclosures restricts the disclosure modes drones may
	// register with (e.g. ["full", "commit"]). Empty admits every mode.
	AllowedDisclosures []string
	// MaxInflight bounds the verification requests admitted concurrently
	// (submissions and stream samples). 0 disables admission control —
	// the in-process/test default; the alidrone-auditor binary defaults
	// it to DefaultInflightPerWorker × the worker pool size.
	MaxInflight int
	// QueueDepth is the per-drone fairness-queue budget used when the
	// in-flight budget is exhausted: up to this many requests per drone
	// wait for a slot, the rest are shed with protocol.ErrOverloaded.
	// 0 selects pipeline.DefaultQueueDepth; negative disables queueing
	// (budget exhausted → shed immediately).
	QueueDepth int
	// RetryAfter is the backoff hint attached to shed requests (the
	// Retry-After header). 0 selects pipeline.DefaultRetryAfter.
	RetryAfter time.Duration
	// Logger receives the server's structured operational log lines
	// (e.g. failed WAL appends during retention sweeps). Nil disables.
	Logger *olog.Logger
	// EncryptionKey, when set, is used as the PoA-encryption keypair
	// instead of generating one. Every shard of a cluster node (and every
	// node of a cluster) must share one key so a drone's ciphertext
	// decrypts on whichever shard owns it.
	EncryptionKey *rsa.PrivateKey
	// ShardTag, when non-empty, is folded into issued session, stream and
	// challenge IDs ("session-<tag>-0001") so shards never issue
	// colliding IDs. The Router sets it for every shard; a Server used
	// directly leaves it empty and keeps the untagged formats.
	ShardTag string
	// SimVerifyCost, when positive, sleeps that long inside the admission
	// slot of every submission — a benchmark-only stand-in for a fixed
	// per-node verification budget. On a single-core box a real CPU-bound
	// pipeline cannot show cluster scale-out (all nodes share the core);
	// an off-CPU wait overlaps across nodes, so the cluster benchmark's
	// 4-node-vs-1-node ratio honestly measures that the routing layer
	// adds no cross-node serialization. Never set outside benchmarks.
	SimVerifyCost time.Duration
}

// DefaultInflightPerWorker scales the admission budget from the worker
// pool: each worker can have a few submissions in flight (decrypt, JSON
// decode and store commits overlap with another request's pool time)
// before queueing sets in.
const DefaultInflightPerWorker = 4

// Server is the AliDrone Server. Its state lives in independently locked
// stores (see stores.go) so concurrent submissions from different drones
// contend only on data they actually share.
type Server struct {
	cfg    Config
	encKey *rsa.PrivateKey
	pool   *parallel.Pool

	// Staged verification pipeline (see stages.go): the instrumented
	// runner, the ciphertext-door table, the stage sequences of the other
	// entry points, and the admission controller gating them all.
	runner         *pipeline.Runner
	admission      *pipeline.Admission
	sigBatcher     *pipeline.VerifyBatcher
	doors          map[string]door
	seqStreamSig   []pipeline.Stage
	seqStreamPair  []pipeline.Stage
	seqStreamClose []pipeline.Stage
	seqAccuse      []pipeline.Stage

	drones      *idStore[DroneRecord]
	zones       *zone.Registry
	nonces      *nonceStore
	seen        *digestStore // accepted-PoA digests, for replay detection
	retained    *seqStore[retainedPoA]
	disclosures *seqStore[retainedDisclosure] // retained sealed/commit submissions
	challenges  *idStore[challengeRecord]     // outstanding selective-disclosure challenges
	sessions    *idStore[sessionRecord]       // §VII-A1a symmetric flight sessions
	streams     *idStore[*streamState]        // in-flight real-time audits

	// Durability (nil/zero when running purely in memory, e.g. tests).
	// store receives one typed record per committed mutation; walSince
	// counts records since the last snapshot; compacting serialises
	// inline auto-compaction (see wal.go).
	store        storage.Store
	walSince     atomic.Uint64
	compacting   atomic.Bool
	compactEvery uint64

	// wireConns tracks the live binary-transport connections (maintained
	// by WireServer, reported by Status).
	wireConns atomic.Int64

	// verdict holds the pre-resolved verdict-latency sinks (nil when
	// neither Metrics nor SLO is configured).
	verdict *verdictObs
}

// NewServer creates an AliDrone Server with the given configuration.
func NewServer(cfg Config) (*Server, error) {
	if cfg.VMaxMS <= 0 {
		cfg.VMaxMS = geo.MaxDroneSpeedMPS
	}
	if cfg.Mode == 0 {
		cfg.Mode = poa.Exact
	}
	if cfg.EncKeyBits == 0 {
		cfg.EncKeyBits = sigcrypto.KeySize1024
	}
	if cfg.Retention == 0 {
		cfg.Retention = 48 * time.Hour
	}
	if cfg.NonceTTL == 0 {
		cfg.NonceTTL = DefaultNonceTTL
	}
	if cfg.Random == nil {
		cfg.Random = rand.Reader
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.System
	}
	key := cfg.EncryptionKey
	if key == nil {
		var err error
		key, err = sigcrypto.GenerateKeyPair(cfg.Random, cfg.EncKeyBits)
		if err != nil {
			return nil, fmt.Errorf("auditor keypair: %w", err)
		}
	}
	if err := sigcrypto.CheckEnvelopeKey(&key.PublicKey); err != nil {
		return nil, fmt.Errorf("auditor keypair: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		encKey:      key,
		pool:        parallel.NewPool(cfg.Workers),
		drones:      newIDStore[DroneRecord]("drone", ""),
		zones:       zone.NewRegistry(),
		nonces:      newNonceStore(cfg.NonceTTL),
		seen:        newDigestStore(),
		retained:    newSeqStore[retainedPoA](),
		disclosures: newSeqStore[retainedDisclosure](),
		challenges:  newIDStore[challengeRecord]("challenge", cfg.ShardTag),
		sessions:    newIDStore[sessionRecord]("session", cfg.ShardTag),
		streams:     newIDStore[*streamState]("stream", cfg.ShardTag),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge(MetricVerifyWorkers).Set(float64(s.pool.Size()))
		busy := cfg.Metrics.Gauge(MetricVerifyWorkersBusy)
		s.pool.OnBusy = func(delta int) { busy.Add(float64(delta)) }
	}
	s.sigBatcher = &pipeline.VerifyBatcher{Pool: s.pool}
	s.buildPipeline()
	s.verdict = newVerdictObs(cfg)
	s.admission = pipeline.NewAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.RetryAfter)
	if (cfg.Metrics != nil || cfg.SLO != nil) && s.admission != nil {
		// Registry handles are nil-safe, so one instrument call covers
		// every combination of Metrics/SLO being present.
		inflight := cfg.Metrics.Gauge(MetricAdmissionInflight)
		queued := cfg.Metrics.Gauge(MetricAdmissionQueued)
		shed := cfg.Metrics.Counter(MetricAdmissionShedTotal)
		admitted := cfg.Metrics.Counter(MetricAdmissionAdmittedTotal)
		slo := cfg.SLO
		s.admission.Instrument(
			func(n int) { inflight.Set(float64(n)) },
			func(n int) { queued.Set(float64(n)) },
			func() { shed.Inc(); slo.RecordShed() },
			func() { admitted.Inc(); slo.RecordAdmitted() },
		)
	}
	return s, nil
}

// WALSince returns the WAL records appended since the last snapshot
// compaction — the durable backlog the fleet status endpoint reports
// per shard.
func (s *Server) WALSince() uint64 { return s.walSince.Load() }

// MaxInflight returns the admission controller's in-flight budget (0 when
// admission control is disabled).
func (s *Server) MaxInflight() int { return s.admission.Max() }

// Workers returns the size of the verification worker pool.
func (s *Server) Workers() int { return s.pool.Size() }

// Status summarises the server's operational state.
func (s *Server) Status() protocol.StatusResponse {
	return protocol.StatusResponse{
		Drones:          s.drones.len(),
		Zones:           s.zones.Len(),
		RetainedPoAs:    s.retained.len(),
		Commitments:     s.disclosures.len(),
		OpenStreams:     s.streams.len(),
		Sessions:        s.sessions.len(),
		WireConnections: int(s.wireConns.Load()),
	}
}

// EncryptionPub returns the Auditor public key drones encrypt PoAs to.
func (s *Server) EncryptionPub() *rsa.PublicKey { return &s.encKey.PublicKey }

// EncryptionKey returns the full PoA-encryption keypair. The cluster
// router uses it to share one key across shards and serve it to joining
// peers; nothing else should need the private half.
func (s *Server) EncryptionKey() *rsa.PrivateKey { return s.encKey }

// Ready implements the Backend readiness probe. A Server is ready as
// soon as it exists: OpenServer finishes recovery before returning it.
func (s *Server) Ready() error { return nil }

// wireConnDelta adjusts the live wire-connection count (WireBackend).
func (s *Server) wireConnDelta(d int64) { s.wireConns.Add(d) }

// Zones exposes the NFZ registry (zone owners register through it or via
// the protocol endpoint).
func (s *Server) Zones() *zone.Registry { return s.zones }

// RegisterDrone implements protocol task 0.
func (s *Server) RegisterDrone(req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	return s.RegisterDroneCtx(context.Background(), req)
}

// RegisterDroneCtx is RegisterDrone under a caller context (trace
// propagation into the WAL commit).
func (s *Server) RegisterDroneCtx(ctx context.Context, req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	return s.registerDrone(ctx, "", req)
}

// RegisterDroneWithID files a registration under a caller-chosen ID. The
// cluster routing layer issues drone IDs ring-side — the ID determines
// the owning node, so it must exist before the record is placed — and
// then files the record here on the owner. A Server used directly keeps
// issuing sequential IDs through RegisterDroneCtx.
func (s *Server) RegisterDroneWithID(ctx context.Context, id string, req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	if id == "" {
		return protocol.RegisterDroneResponse{}, errors.New("auditor: empty drone id")
	}
	return s.registerDrone(ctx, id, req)
}

// registerDrone validates a registration, files it — under id, or under
// the next issued ID when id is empty — and logs it.
func (s *Server) registerDrone(ctx context.Context, id string, req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	rec, err := s.parseRegistration(req)
	if err != nil {
		return protocol.RegisterDroneResponse{}, err
	}
	now := s.cfg.Clock.Now()
	rec.ID = id
	if id == "" {
		id = s.drones.issue(now, func(id string) DroneRecord { rec.ID = id; return rec })
	} else if !s.drones.put(now, id, rec) {
		return protocol.RegisterDroneResponse{}, fmt.Errorf("auditor: drone id %q already registered", id)
	}
	if err := s.wal(ctx, recDroneRegistered, walDrone{
		ID: id, OperatorPub: req.OperatorPub, TEEPub: req.TEEPub,
		Suite: rec.Suite, Disclosure: rec.Disclosure,
	}); err != nil {
		return protocol.RegisterDroneResponse{}, err
	}
	return protocol.RegisterDroneResponse{DroneID: id}, nil
}

// parseRegistration validates a registration request against this
// server's allow-lists and builds the unfiled record (ID unassigned).
func (s *Server) parseRegistration(req protocol.RegisterDroneRequest) (DroneRecord, error) {
	rec, err := decodeRegistration(req.OperatorPub, req.TEEPub, req.Disclosure)
	if err != nil {
		return DroneRecord{}, err
	}
	if req.Suite != "" && req.Suite != rec.Suite {
		return DroneRecord{}, fmt.Errorf(
			"auditor: requested suite %q does not match the key envelope (%s)", req.Suite, rec.Suite)
	}
	if err := allowed("signature suite", rec.Suite, s.cfg.AllowedSuites); err != nil {
		return DroneRecord{}, err
	}
	if err := allowed("disclosure mode", rec.Disclosure, s.cfg.AllowedDisclosures); err != nil {
		return DroneRecord{}, err
	}
	return rec, nil
}

// decodeRegistration parses a registration's two keys and disclosure mode
// — as a request carries them and as a recDroneRegistered record repeats
// them — into the record with its epoch-0 ring. The suite is the TEE key
// envelope's.
func decodeRegistration(operatorPub, teePub, disclosure string) (DroneRecord, error) {
	opPub, err := sigcrypto.UnmarshalPublicKey(operatorPub)
	if err != nil {
		return DroneRecord{}, fmt.Errorf("operator key: %w", err)
	}
	teeKey, err := sigcrypto.ParsePublicKey(teePub)
	if err != nil {
		return DroneRecord{}, fmt.Errorf("tee key: %w", err)
	}
	mode, err := poa.NormalizeDisclosure(disclosure)
	if err != nil {
		return DroneRecord{}, fmt.Errorf("auditor: %w", err)
	}
	return DroneRecord{OperatorPub: opPub, Suite: teeKey.SuiteID(), Disclosure: mode, TEEKeys: []TEEKey{{Pub: teeKey}}}, nil
}

// allowed enforces a registration-time allow-list (Config.AllowedSuites,
// Config.AllowedDisclosures); an empty list admits everything.
func allowed(what, v string, list []string) error {
	if len(list) == 0 || slices.Contains(list, v) {
		return nil
	}
	return fmt.Errorf("auditor: %s %q is not accepted here (allowed: %v)", what, v, list)
}

// ErrDisclosureMismatch is returned when a submission door does not match
// the drone's registered disclosure mode.
var ErrDisclosureMismatch = errors.New("auditor: submission door does not match the drone's disclosure mode")

// requireDisclosure gates a submission door on the drone's registered
// disclosure mode.
func requireDisclosure(rec DroneRecord, mode string) error {
	if rec.Disclosure != mode {
		return fmt.Errorf("%w: drone %s registered %q, this door accepts %q", ErrDisclosureMismatch, rec.ID, rec.Disclosure, mode)
	}
	return nil
}

// RegisterZone implements protocol task 1. Ownership proofs are accepted
// at face value — verifying property records is orthogonal to the paper.
func (s *Server) RegisterZone(req protocol.RegisterZoneRequest) (protocol.RegisterZoneResponse, error) {
	id, err := s.zones.Register(req.Owner, req.Zone)
	if err != nil {
		return protocol.RegisterZoneResponse{}, err
	}
	return protocol.RegisterZoneResponse{ZoneID: id}, nil
}

// RegisterPolygonZone implements the §VII-B2 extension: a polygonal
// property is converted to its smallest enclosing circle once at
// registration (linear-time), so the PoA geometry stays circular.
func (s *Server) RegisterPolygonZone(req protocol.RegisterPolygonZoneRequest) (protocol.RegisterZoneResponse, error) {
	if len(req.Vertices) < 3 {
		return protocol.RegisterZoneResponse{}, fmt.Errorf("auditor: polygon needs >= 3 vertices, got %d", len(req.Vertices))
	}
	for _, v := range req.Vertices {
		if !v.Valid() {
			return protocol.RegisterZoneResponse{}, fmt.Errorf("auditor: invalid vertex %v", v)
		}
	}
	// Project around the vertex centroid, enclose, and register.
	var lat, lon float64
	for _, v := range req.Vertices {
		lat += v.Lat
		lon += v.Lon
	}
	n := float64(len(req.Vertices))
	pr := geo.NewProjection(geo.LatLon{Lat: lat / n, Lon: lon / n})
	pg := geo.Polygon{Vertices: make([]geo.Point, len(req.Vertices))}
	for i, v := range req.Vertices {
		pg.Vertices[i] = pr.ToLocal(v)
	}
	id, err := s.zones.RegisterPolygon(req.Owner, pr, pg)
	if err != nil {
		return protocol.RegisterZoneResponse{}, err
	}
	return protocol.RegisterZoneResponse{ZoneID: id}, nil
}

// ZoneQuery implements protocol tasks 2-3: verify the signed nonce against
// the registered drone, reject replays, and return the zones intersecting
// the navigation area.
func (s *Server) ZoneQuery(req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	return s.ZoneQueryCtx(context.Background(), req)
}

// ZoneQueryCtx is ZoneQuery under a caller context.
func (s *Server) ZoneQueryCtx(ctx context.Context, req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	rec, ok := s.drones.get(req.DroneID)
	if !ok {
		return protocol.ZoneQueryResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, req.DroneID)
	}
	if err := protocol.VerifyZoneQuery(req, rec.OperatorPub); err != nil {
		return protocol.ZoneQueryResponse{}, err
	}
	// Validate before claiming: a malformed query must not burn its nonce
	// or write to the log.
	if !req.Area.Valid() {
		return protocol.ZoneQueryResponse{}, fmt.Errorf("auditor: invalid query area %+v", req.Area)
	}
	now := s.cfg.Clock.Now()
	if !s.nonces.claim(req.Nonce, now) {
		return protocol.ZoneQueryResponse{}, fmt.Errorf("%w: replayed", protocol.ErrBadNonce)
	}
	if err := s.wal(ctx, recNonceSeen, walNonce{Nonce: req.Nonce, Seen: now}); err != nil {
		return protocol.ZoneQueryResponse{}, err
	}
	return protocol.ZoneQueryResponse{Zones: s.zones.QueryRect(req.Area)}, nil
}

// SubmitPoA implements protocol task 4: decrypt, authenticate and verify a
// Proof-of-Alibi, retaining it for later accusations when it verifies.
func (s *Server) SubmitPoA(req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.SubmitPoACtx(context.Background(), req)
}

// SubmitPoACtx is SubmitPoA under a caller context: the verification
// stages and WAL commit become child spans of the context's trace, and a
// cancelled context aborts verification with the context error — never a
// violation verdict, since no check actually failed.
func (s *Server) SubmitPoACtx(ctx context.Context, req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	return s.enter(ctx, DoorSubmit, protocol.Envelope{DroneID: req.DroneID, Ciphertext: req.EncryptedPoA})
}

// enter is the body of every ciphertext door (see the door table in
// stages.go): resolve the drone, enforce its registered disclosure mode,
// resolve the flight session on a session door, take an admission slot,
// run the door's stages and account the verdict.
func (s *Server) enter(ctx context.Context, name string, e protocol.Envelope) (protocol.SubmitPoAResponse, error) {
	d := s.doors[name]
	start := s.verdictStart()
	rec, ok := s.drones.get(e.DroneID)
	if !ok {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, e.DroneID)
	}
	if err := requireDisclosure(rec, d.mode); err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	sub := &pipeline.Submission{
		DroneID:    e.DroneID,
		Ciphertext: e.Ciphertext,
		Keys:       s.ring(rec),
		Suite:      rec.Suite,
	}
	if d.session {
		sess, ok := s.sessions.get(e.SessionID)
		if !ok {
			return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownSession, e.SessionID)
		}
		if sess.DroneID != e.DroneID {
			return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: session belongs to another drone", ErrUnknownSession)
		}
		sub.SessionID, sub.MACKey = e.SessionID, sess.Key
	}
	if err := s.admission.Acquire(ctx, e.DroneID); err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	defer s.admission.Release()
	s.simVerifyWait(ctx)
	resp, err := s.runSubmission(ctx, sub, d.stages)
	if err != nil {
		if sub.SessionClaimed {
			// No verdict: give the session back for the retry. A session
			// swept meanwhile has nothing to give back.
			_, _ = s.sessions.update(e.SessionID, func(r sessionRecord) (sessionRecord, error) {
				r.Used = false
				return r, nil
			})
		}
		return resp, err
	}
	if d.retainOnly && resp.Verdict == protocol.VerdictCompliant {
		resp.Verdict = protocol.VerdictRetained
	}
	s.countVerdict(resp)
	s.countDisclosure(d.mode)
	s.observeVerdict(name, start)
	return resp, nil
}

// simVerifyWait sleeps Config.SimVerifyCost inside the admission slot —
// the benchmark-only fixed verification budget (see the Config field for
// why). A zero cost (every production configuration) returns instantly.
func (s *Server) simVerifyWait(ctx context.Context) {
	if s.cfg.SimVerifyCost <= 0 {
		return
	}
	t := time.NewTimer(s.cfg.SimVerifyCost)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// runSubmission executes a stage sequence and settles the replay-digest
// claim: a submission that does not commit (violation verdict or internal
// error, including a failed digest WAL append) releases its claim, so a
// later honest submission of the same bytes is never shadowed by a failed
// one.
func (s *Server) runSubmission(ctx context.Context, sub *pipeline.Submission, seq []pipeline.Stage) (protocol.SubmitPoAResponse, error) {
	resp, err := s.runner.Run(ctx, sub, seq)
	if sub.DigestClaimed && (err != nil || resp.Verdict != protocol.VerdictCompliant) {
		s.seen.release(sub.Digest)
	}
	return resp, err
}

// isCtxErr reports whether err is a context cancellation/deadline error.
// An aborted verification must surface as an error, never as a violation
// verdict: no check failed, the caller just went away.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// zonesForTrace pulls the zones whose boundary could matter for a trace:
// everything within the trace bounding box expanded by the maximum travel
// budget between consecutive samples. The lookup goes through the zone
// registry's grid index, so it scales with the zones near the trace, not
// with registry size.
func (s *Server) zonesForTrace(alibi []poa.Sample) []geo.GeoCircle {
	minLat, maxLat := alibi[0].Pos.Lat, alibi[0].Pos.Lat
	minLon, maxLon := alibi[0].Pos.Lon, alibi[0].Pos.Lon
	var maxGap float64
	for i, sm := range alibi {
		minLat = min(minLat, sm.Pos.Lat)
		maxLat = max(maxLat, sm.Pos.Lat)
		minLon = min(minLon, sm.Pos.Lon)
		maxLon = max(maxLon, sm.Pos.Lon)
		if i > 0 {
			gap := sm.Time.Sub(alibi[i-1].Time).Seconds() * s.cfg.VMaxMS
			maxGap = max(maxGap, gap)
		}
	}
	rect := geo.Rect{MinLat: minLat, MinLon: minLon, MaxLat: maxLat, MaxLon: maxLon}
	rect = rect.Expand(maxGap + 1)
	return zone.Circles(s.zones.QueryRect(rect))
}

// retain stores a verified alibi for the configured retention window and
// logs it; the mutation is committed before the append so a snapshot
// captured between the two still covers it (replay dedups on Seq).
func (s *Server) retain(ctx context.Context, droneID string, alibi []poa.Sample) error {
	r, n := s.retained.add(retainedPoA{
		DroneID:    droneID,
		Samples:    alibi,
		SubmitTime: s.cfg.Clock.Now(),
	})
	s.cfg.Metrics.Gauge(MetricRetainedPoAs).Set(float64(n))
	return s.wal(ctx, recPoARetained, r)
}

// PurgeExpired drops retained PoAs older than the retention window and
// returns how many were removed. A PoA expires exactly at SubmitTime +
// Retention: a purge run at that instant removes it. The sweep also
// expires the replay-digest set (same retention cutoff) and the
// zone-query nonce cache (NonceTTL), so neither map grows without bound
// under sustained traffic, and drops sessions, disclosure challenges and
// open streams issued before the same cutoff.
func (s *Server) PurgeExpired() int { return s.PurgeExpiredCtx(context.Background()) }

// PurgeExpiredCtx is PurgeExpired under a caller context: the retention
// sweeper threads its run context through, so a sweeper shutdown cancels
// the purge's WAL append instead of leaving it on a background context.
func (s *Server) PurgeExpiredCtx(ctx context.Context) int {
	now := s.cfg.Clock.Now()
	cutoff := now.Add(-s.cfg.Retention)
	removed, kept := s.retained.purge(cutoff)
	s.cfg.Metrics.Gauge(MetricRetainedPoAs).Set(float64(kept))
	s.cfg.Metrics.Counter(MetricEvictedPoAsTotal).Add(uint64(removed))
	if n, _ := s.disclosures.purge(cutoff); n > 0 {
		s.cfg.Metrics.Counter(MetricEvictedPoAsTotal).Add(uint64(n))
		removed += n
	}

	swept := 0
	if n := s.seen.sweep(cutoff); n > 0 {
		s.cfg.Metrics.Counter(MetricExpiredDigestsTotal).Add(uint64(n))
		swept += n
	}
	if n := s.nonces.sweep(now); n > 0 {
		s.cfg.Metrics.Counter(MetricExpiredNoncesTotal).Add(uint64(n))
		swept += n
	}
	// Ephemeral state, so nothing to log: a session, challenge or stream
	// older than the evidence it could refer to is abandoned.
	s.sessions.sweep(cutoff)
	s.challenges.sweep(cutoff)
	s.streams.sweep(cutoff)
	if removed+swept > 0 {
		// Log the sweep with its commit-time cutoffs so the expiry
		// schedule survives a restart. The in-memory purge stands either
		// way — an unlogged purge merely replays as a no-op sweep — but a
		// failed append means durable state is behind, so it is surfaced
		// in the structured log on top of the WAL-error metric.
		if err := s.wal(ctx, recPurge, walPurge{Cutoff: cutoff, Now: now}); err != nil {
			s.cfg.Logger.Warn(ctx, "retention purge WAL append failed",
				"err", err, "removed", removed, "swept", swept)
		}
	}
	return removed
}

// HandleAccusation resolves a Zone Owner report "(zone, drone, time)": it
// re-checks every retained sample pair spanning the incident instant
// against the accused zone through the shared sufficiency stage. A
// compliant verdict proves the drone could not have been in the zone at
// that time — so *any* spanning pair that exonerates decides the case,
// even when an earlier retained PoA for the same drone is too coarse to
// rule the zone out. Only when every spanning pair fails does the
// accusation stand.
func (s *Server) HandleAccusation(droneID, zoneID string, at time.Time) (protocol.SubmitPoAResponse, error) {
	return s.HandleAccusationCtx(context.Background(), droneID, zoneID, at)
}

// HandleAccusationCtx is HandleAccusation under a caller context. The
// resolution runs inside a "verify.accusation" span and lands in the
// accusation-outcome counter: compliant, violation, or no_poa when no
// retained proof covers the instant. A disclosure-required response is
// pending, not an outcome — it is counted when the reveal settles it.
func (s *Server) HandleAccusationCtx(ctx context.Context, droneID, zoneID string, at time.Time) (protocol.SubmitPoAResponse, error) {
	start := s.verdictStart()
	actx, sp := s.cfg.Tracer.StartSpan(ctx, "verify.accusation")
	sp.SetAttr("drone", droneID)
	sp.SetAttr("zone", zoneID)
	resp, err := s.handleAccusation(actx, droneID, zoneID, at)
	sp.SetError(err)
	sp.End()
	switch {
	case errors.Is(err, ErrNoPoA):
		s.countAccusation("no_poa")
	case err == nil && resp.Verdict != protocol.VerdictDisclosureRequired:
		s.countAccusation(string(resp.Verdict))
	}
	if err == nil {
		s.observeVerdict(DoorAccuse, start)
	}
	return resp, err
}

func (s *Server) handleAccusation(ctx context.Context, droneID, zoneID string, at time.Time) (protocol.SubmitPoAResponse, error) {
	z, ok := s.zones.Get(zoneID)
	if !ok {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownZone, zoneID)
	}
	if _, known := s.drones.get(droneID); !known {
		return protocol.SubmitPoAResponse{}, fmt.Errorf("%w: %q", ErrUnknownDrone, droneID)
	}

	spanning := false
	for _, r := range s.retained.byDrone(droneID) {
		for i := 0; i+1 < len(r.Samples); i++ {
			s1, s2 := r.Samples[i], r.Samples[i+1]
			if at.Before(s1.Time) || at.After(s2.Time) {
				continue
			}
			spanning = true
			sub := &pipeline.Submission{
				DroneID: droneID,
				Samples: []poa.Sample{s1, s2},
				Zones:   []geo.GeoCircle{z.Circle},
			}
			resp, err := s.runner.Run(ctx, sub, s.seqAccuse)
			if err != nil {
				return protocol.SubmitPoAResponse{}, err
			}
			if resp.Verdict == protocol.VerdictCompliant {
				return resp, nil
			}
		}
	}

	// Sealed/commit proofs hide positions, so the accusation cannot be
	// settled server-side: issue a selective-disclosure challenge for the
	// spanning pair and let the operator's reveal decide it.
	if ch, ok := s.challengeDisclosure(droneID, zoneID, at); ok {
		return protocol.SubmitPoAResponse{
			Verdict:   protocol.VerdictDisclosureRequired,
			Reason:    "retained proof hides positions; selective disclosure of the spanning pair is required",
			Challenge: &ch,
		}, nil
	}

	if spanning {
		return protocol.SubmitPoAResponse{
			Verdict: protocol.VerdictViolation,
			Reason:  "retained alibi cannot rule out presence in the accused zone",
		}, nil
	}
	return protocol.SubmitPoAResponse{}, ErrNoPoA
}

// challengeDisclosure scans the drone's retained disclosures for one whose
// clear timestamps span the accused instant and opens a challenge for the
// spanning pair. The most recent spanning submission wins: it supersedes
// earlier uploads of the same flight.
func (s *Server) challengeDisclosure(droneID, zoneID string, at time.Time) (protocol.DisclosureChallenge, bool) {
	recs := s.disclosures.byDrone(droneID)
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		pair, err := privacy.FindPairTimes(r.Times, at)
		if err != nil {
			continue
		}
		ch := protocol.DisclosureChallenge{
			DroneID:   droneID,
			ZoneID:    zoneID,
			Mode:      r.Mode,
			At:        at,
			PairIndex: pair,
		}
		s.challenges.issue(s.cfg.Clock.Now(), func(id string) challengeRecord {
			ch.ChallengeID = id
			return challengeRecord{DisclosureChallenge: ch, DisclosureSeq: r.Seq}
		})
		return ch, true
	}
	return protocol.DisclosureChallenge{}, false
}
