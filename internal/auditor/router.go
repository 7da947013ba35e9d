package auditor

// Router is the auditor's front layer: one auditor process owns N local
// shard Servers and a membership view of its peers, and every
// drone-keyed operation is routed — by consistent hash over the drone ID
// — to the shard that owns it, locally or on a remote node. A lone
// auditor is a Router without a node ID: one node, no peers, no cluster
// doors. The transports (HTTP handler, wire server) are backend
// agnostic: they serve a Router exactly as they serve a bare Server,
// which in-process callers still use directly.
//
// Routing is two-level:
//
//	drone ID ──ring──▶ owning node ──fnv mod shards──▶ local shard
//
// A request that lands on a non-owner is forwarded once to the owner
// with protocol.ForwardedHeader set; a forwarded request landing on
// another non-owner answers ErrMisrouted (421) instead of forwarding
// again, so routing disagreement during a membership change can never
// loop (DESIGN.md §11).

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	otrace "repro/internal/obs/trace"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
	"repro/internal/zone"
)

// Router implements Backend and WireBackend over a set of local shards
// plus the cluster's remote nodes.
var (
	_ Backend     = (*Router)(nil)
	_ WireBackend = (*Router)(nil)
)

// RouterConfig parameterises one auditor node.
type RouterConfig struct {
	// Self identifies this node: its ID on the ring and the addresses
	// peers and clients reach it at. An empty ID makes a standalone node:
	// it takes no seeds and serves none of the cluster-internal doors
	// (router_http.go).
	Self cluster.Node
	// Seeds are the peers contacted at bootstrap (self is implied).
	Seeds []cluster.Node
	// Shards is the number of local shard Servers (default 1).
	Shards int
	// StateDir, when non-empty, gives every shard a file-backed store at
	// <StateDir>/shard-<i>. Empty runs all shards in memory. A directory
	// holding WAL or snapshot files at its root and no shard-0 is refused
	// (see checkStateLayout).
	StateDir string
	// Server is the per-shard configuration template. Its EncryptionKey,
	// ShardTag and Metrics/Tracer/Clock/Random fields are managed by the
	// router: the key is shared across shards (fetched from a seed when
	// joining an existing cluster), the tag is derived from Self.ID and
	// the shard index.
	Server Config
	// Logger receives routing and handoff log lines. Nil disables.
	Logger *olog.Logger
	// HTTPClient performs node-to-node calls (forwards, gossip, handoff).
	// Nil selects a client with a 10 s timeout.
	HTTPClient *http.Client

	// keyFetchAttempts overrides the seed key-fetch retry count (0 keeps
	// the default; tests use 1 to fail fast).
	keyFetchAttempts int
}

// streamRoute remembers where an open stream lives: on a local shard or
// on a peer node. Stream IDs are shard-tagged, so the map never aliases.
type streamRoute struct {
	local bool
	shard int
	node  string // owning node ID when !local
	addr  string // owning node address when !local
}

// Router fronts N local shard Servers and the cluster's remote nodes.
type Router struct {
	cfg        RouterConfig
	shards     []*Server
	stores     []storage.Store
	membership *cluster.Membership
	client     *http.Client
	log        *olog.Logger
	clock      obs.Clock

	streams   sync.Map // stream ID → streamRoute
	wireConns atomic.Int64
	joined    atomic.Bool
	fwd       *wireForwarder
	slo       *obs.SLO // shared across shards; nil when untracked

	// handoffMu serialises outgoing rebalances and incoming handoff
	// imports; handoffsSeen dedups re-deliveries per (source, map
	// version) so repeated rebalance rounds never duplicate state.
	handoffMu    sync.Mutex
	handoffsSeen map[string]uint64

	// Cluster metrics, nil when Config.Server.Metrics is nil.
	nodesGauge     *obs.Gauge
	forwardsOut    *obs.Counter
	forwardsIn     *obs.Counter
	handoffSeconds *obs.Histogram
}

// NewRouter opens (or creates) every local shard and joins the cluster
// membership. It does not start the gossip loop — call Run, or drive
// Gossiper rounds manually in tests.
func NewRouter(cfg RouterConfig) (*Router, error) {
	standalone := cfg.Self.ID == ""
	if standalone && len(cfg.Seeds) > 0 {
		return nil, errors.New("auditor: a node without an ID is standalone and takes no seeds")
	}
	if err := checkStateLayout(cfg.StateDir); err != nil {
		return nil, err
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	// Every line a cluster node logs carries its identity, so interleaved
	// multi-node output (tests, co-located processes) is attributable.
	logger, scfg := cfg.Logger, cfg.Server
	if !standalone {
		logger = logger.With("node", cfg.Self.ID)
		scfg.Logger = scfg.Logger.With("node", cfg.Self.ID)
	}
	r := &Router{
		cfg:          cfg,
		client:       cfg.HTTPClient,
		log:          logger,
		fwd:          newWireForwarder(),
		handoffsSeen: make(map[string]uint64),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: 10 * time.Second}
	}
	if reg := cfg.Server.Metrics; reg != nil {
		r.nodesGauge = reg.Gauge(MetricClusterNodes)
		r.forwardsOut = reg.Counter(obs.L(MetricClusterForwardsTotal, "dir", "out"))
		r.forwardsIn = reg.Counter(obs.L(MetricClusterForwardsTotal, "dir", "in"))
		r.handoffSeconds = reg.Histogram(MetricClusterHandoffSeconds, obs.DurationBuckets)
	}

	// The PoA encryption key must be cluster-wide: a drone encrypts to
	// one public key and its submissions may verify on any node. The
	// first node generates it; a joining node fetches it from a seed
	// (seed-first bootstrap — documented in DESIGN.md §11). A fresh
	// joiner that cannot reach any seed must NOT fall back to generating
	// its own key — the cluster would silently diverge and every
	// forwarded submission fail to decrypt — so it retries long enough
	// to cover seeds booting at the same moment, then refuses to start.
	// A node restarting with shard state skips the fetch: its persisted
	// key wins over any config or fetched key regardless.
	// One SLO tracker shared by every shard: the node-level summary (and
	// the fleet status endpoint) wants coherent per-door windows, while
	// the shard= dimension inside the tracker keeps shards tellable
	// apart.
	if scfg.SLO == nil && scfg.Metrics != nil {
		scfg.SLO = obs.NewSLO(obs.SLOOptions{Clock: scfg.Clock})
		scfg.SLO.Register(scfg.Metrics, MetricSLOPrefix)
	}
	r.slo = scfg.SLO
	if scfg.EncryptionKey == nil && !soleNode(cfg.Self, cfg.Seeds) && !hasShardState(cfg.StateDir) {
		key, err := r.fetchClusterKeyRetry(cfg.Seeds)
		if err != nil {
			return nil, fmt.Errorf("auditor: joining cluster without the shared PoA key: %w", err)
		}
		scfg.EncryptionKey = key
	}

	for i := 0; i < cfg.Shards; i++ {
		sc := scfg
		sc.ShardTag = fmt.Sprintf("s%d", i)
		if !standalone {
			sc.ShardTag = cfg.Self.ID + "-" + sc.ShardTag
		}
		var (
			srv *Server
			st  storage.Store
			err error
		)
		if cfg.StateDir != "" {
			st, err = storage.OpenFileStore(
				filepath.Join(cfg.StateDir, fmt.Sprintf("shard-%d", i)),
				storage.Options{Metrics: sc.Metrics})
			if err != nil {
				r.closeStores()
				return nil, fmt.Errorf("auditor: shard %d store: %w", i, err)
			}
			srv, err = OpenServer(sc, st, "")
		} else {
			srv, err = NewServer(sc)
		}
		if err != nil {
			if st != nil {
				st.Close()
			}
			r.closeStores()
			return nil, fmt.Errorf("auditor: shard %d: %w", i, err)
		}
		r.shards = append(r.shards, srv)
		r.stores = append(r.stores, st)
		if i == 0 {
			// Shard 0 settles the key (a persisted key wins over the
			// config); every later shard reuses it.
			scfg.EncryptionKey = srv.EncryptionKey()
		}
	}

	clock := cfg.Server.Clock
	if clock == nil {
		clock = obs.System
	}
	r.clock = clock
	r.membership = cluster.NewMembership(cluster.MembershipConfig{
		Self:     cfg.Self,
		Seeds:    cfg.Seeds,
		Clock:    clock,
		OnChange: r.onMapChange,
	})
	r.onMapChange(r.membership.Map())
	// A single-node cluster is joined by definition; with seeds, the
	// first successful gossip exchange flips readiness.
	if soleNode(cfg.Self, cfg.Seeds) {
		r.joined.Store(true)
	}
	return r, nil
}

// soleNode reports whether the seed list names nobody but self.
func soleNode(self cluster.Node, seeds []cluster.Node) bool {
	for _, s := range seeds {
		if s.ID != self.ID {
			return false
		}
	}
	return true
}

// hasShardState reports whether a previous run left shard state under
// dir. Such a node restores its persisted encryption key, so it must
// not block startup on a seed fetch — its peers may all be down.
func hasShardState(dir string) bool {
	if dir == "" {
		return false
	}
	entries, err := os.ReadDir(filepath.Join(dir, "shard-0"))
	return err == nil && len(entries) > 0
}

// checkStateLayout refuses a state directory laid out by a standalone
// auditor from before every auditor ran behind a Router: WAL segments and
// snapshots at the root and no shard-0. Starting over it would open an
// empty shard-0 beside the files and mint a new PoA key, silently
// orphaning every registered drone.
func checkStateLayout(dir string) error {
	if dir == "" {
		return nil
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0")); err == nil {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil // absent: a fresh directory, created per shard below
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-") {
			return fmt.Errorf("auditor: %s holds a standalone auditor's state at its root (%s); move its wal-* and snap-* files into %s to keep that state and its key",
				dir, name, filepath.Join(dir, "shard-0"))
		}
	}
	return nil
}

// fetchClusterKeyRetry cycles the seeds for the cluster encryption key,
// retrying long enough to cover seeds that are starting up at the same
// moment as this node.
func (r *Router) fetchClusterKeyRetry(seeds []cluster.Node) (*rsa.PrivateKey, error) {
	const pause = 250 * time.Millisecond
	attempts := r.cfg.keyFetchAttempts
	if attempts <= 0 {
		attempts = 20
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		for _, seed := range seeds {
			if seed.ID == r.cfg.Self.ID {
				continue
			}
			key, err := r.fetchClusterKey(seed)
			if err == nil {
				return key, nil
			}
			lastErr = err
			if a == 0 {
				r.log.Warn(context.Background(), "cluster key fetch failed; retrying",
					"seed", seed.ID, "err", err.Error())
			}
		}
		time.Sleep(pause)
	}
	return nil, lastErr
}

// closeStores closes every opened shard store (constructor failure and
// Close paths).
func (r *Router) closeStores() {
	for _, st := range r.stores {
		if st != nil {
			st.Close()
		}
	}
}

// Close closes every shard's backing store and the pooled forward
// connections. The router itself holds no goroutines — Run exits with
// its context.
func (r *Router) Close() error {
	r.fwd.Close()
	r.closeStores()
	return nil
}

// Map returns the current cluster map.
func (r *Router) Map() *cluster.Map { return r.membership.Map() }

// Shard returns local shard i (tests, per-shard housekeeping).
func (r *Router) Shard(i int) *Server { return r.shards[i] }

// NumShards returns the local shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Checkpoint snapshots every local shard (shutdown flush).
func (r *Router) Checkpoint() error {
	var firstErr error
	for i, sh := range r.shards {
		if err := sh.Checkpoint(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}

// Run drives the gossip loop until ctx ends.
func (r *Router) Run(ctx context.Context) {
	g := r.Gossiper()
	g.Run(ctx)
}

// Gossiper builds the membership gossiper wired to this router's
// node-to-node transport.
func (r *Router) Gossiper() *cluster.Gossiper {
	return &cluster.Gossiper{
		M:        r.membership,
		Exchange: r.exchange,
		OnError: func(peer cluster.Node, err error) {
			r.log.Debug(context.Background(), "gossip exchange failed",
				"peer", peer.ID, "err", err.Error())
		},
	}
}

// exchange performs one gossip round trip with a peer over HTTP.
func (r *Router) exchange(ctx context.Context, peer cluster.Node, d cluster.Digest) (cluster.Digest, error) {
	reply, err := clusterPost[cluster.Digest](ctx, r.client, peer.Addr, protocol.PathClusterGossip, d, false)
	if err != nil {
		return cluster.Digest{}, err
	}
	r.joined.Store(true)
	return reply, nil
}

// onMapChange tracks the map in metrics and rebalances state toward new
// owners in the background.
func (r *Router) onMapChange(m *cluster.Map) {
	if r.nodesGauge != nil {
		r.nodesGauge.Set(float64(len(m.Nodes)))
	}
	if len(m.Nodes) > 1 && m.Version > 1 {
		go func() {
			if err := r.Rebalance(context.Background()); err != nil {
				r.log.Warn(context.Background(), "rebalance failed", "err", err.Error())
			}
		}()
	}
}

// Ready implements the Backend readiness probe: shards are recovered at
// construction, so readiness is purely "has this node joined the ring".
// The reason string travels in the /readyz 503 body, so probes and
// operators see why the node is not serving yet.
func (r *Router) Ready() error {
	if !r.joined.Load() {
		return errors.New("ring not joined (no successful gossip exchange yet)")
	}
	return nil
}

// shardFor maps a drone ID onto a local shard index.
func (r *Router) shardFor(droneID string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(droneID))
	return int(h.Sum32() % uint32(len(r.shards)))
}

// localShard returns the shard owning droneID on this node.
func (r *Router) localShard(droneID string) *Server {
	return r.shards[r.shardFor(droneID)]
}

// owner resolves the owning node for a drone ID under the current map.
func (r *Router) owner(droneID string) (cluster.Node, bool) {
	n, ok := r.membership.Map().Owner(droneID)
	if !ok {
		return r.cfg.Self, true // empty ring: everything is local
	}
	return n, n.ID == r.cfg.Self.ID
}

// countForward bumps the forward counters (nil-safe).
func (r *Router) countForward(out bool) {
	switch {
	case out && r.forwardsOut != nil:
		r.forwardsOut.Inc()
	case !out && r.forwardsIn != nil:
		r.forwardsIn.Inc()
	}
}

// routeDrone routes one drone-keyed call: local shard when this node
// owns the drone, a single-hop forward to the owner otherwise. A
// forwarded request that still lands on a non-owner raises ErrMisrouted
// instead of hopping again.
func routeDrone[Resp any](ctx context.Context, r *Router, droneID, path string, req any,
	local func(*Server) (Resp, error)) (Resp, error) {
	return routeDroneVia(ctx, r, droneID, local,
		func(fctx context.Context, owner cluster.Node) (Resp, error) {
			otrace.FromContext(fctx).SetAttr("transport", "http")
			return clusterPost[Resp](fctx, r.client, owner.Addr, path, req, true)
		})
}

// routeDroneVia is routeDrone with a caller-chosen remote transport (the
// submission door prefers the binary wire when the owner serves one).
// The remote branch runs inside a cluster.forward span, so a forwarded
// request is one contiguous trace: the routing node records the hop, the
// owner — receiving the span's traceparent — continues underneath it
// through verify.* down to wal.append.
func routeDroneVia[Resp any](ctx context.Context, r *Router, droneID string,
	local func(*Server) (Resp, error),
	remote func(context.Context, cluster.Node) (Resp, error)) (Resp, error) {
	owner, isLocal := r.owner(droneID)
	if isLocal {
		if isForwarded(ctx) {
			r.countForward(false)
		}
		return local(r.localShard(droneID))
	}
	var zero Resp
	if isForwarded(ctx) {
		return zero, &protocol.MisroutedError{DroneID: droneID, Owner: owner.ID}
	}
	r.countForward(true)
	fctx, sp := r.tracer().StartSpan(ctx, "cluster.forward")
	sp.SetAttr("drone", droneID)
	sp.SetAttr("owner", owner.ID)
	resp, err := remote(fctx, owner)
	sp.SetError(err)
	sp.End()
	return resp, err
}

// tracer returns the shared tracer (nil when tracing is disabled).
func (r *Router) tracer() *otrace.Tracer { return r.cfg.Server.Tracer }

// clusterPost performs one node-to-node POST, encoded as the drone's own
// client encodes it (protocol.EncodeHTTPRequest), and decodes the peer's
// JSON reply. Error replies come back as remoteError so the originating
// door reports the peer's status code unchanged.
func clusterPost[Resp any](ctx context.Context, client *http.Client, addr, path string, req any, forwarded bool) (Resp, error) {
	var zero Resp
	body, contentType, query, err := protocol.EncodeHTTPRequest(new(bytes.Buffer), req)
	if err != nil {
		return zero, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path+query, bytes.NewReader(body))
	if err != nil {
		return zero, err
	}
	hreq.Header.Set("Content-Type", contentType)
	// Propagate the active trace across the hop: the receiving door calls
	// StartRemote with this header, so forwarded work — submissions,
	// gossip-triggered handoffs — stays one contiguous trace.
	if tp := otrace.HeaderFromContext(ctx); tp != "" {
		hreq.Header.Set(protocol.HeaderTraceParent, tp)
	}
	if forwarded {
		hreq.Header.Set(protocol.ForwardedHeader, "1")
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return zero, fmt.Errorf("cluster: %s %s: %w", path, addr, err)
	}
	// Drain the tail (encoders append a newline the JSON decoder never
	// reads) so the keep-alive connection returns to the pool instead of
	// lingering half-read.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&eb)
		msg := eb.Error
		if msg == "" {
			msg = resp.Status
		}
		return zero, &remoteError{status: resp.StatusCode, msg: msg}
	}
	var out Resp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return zero, fmt.Errorf("cluster: %s reply from %s: %w", path, addr, err)
	}
	return out, nil
}

// fetchClusterKey retrieves the shared PoA encryption key from a seed.
func (r *Router) fetchClusterKey(seed cluster.Node) (*rsa.PrivateKey, error) {
	resp, err := r.client.Get("http://" + seed.Addr + protocol.PathClusterKey)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster key: %s", resp.Status)
	}
	var kr protocol.ClusterKeyResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&kr); err != nil {
		return nil, err
	}
	return sigcrypto.UnmarshalPrivateKey(kr.EncKey)
}

// newDroneID issues a routing-friendly random drone ID. The router —
// not the shard — issues IDs, because the ID determines the owning node
// and must exist before the record is placed anywhere.
func (r *Router) newDroneID() (string, error) {
	rnd := r.cfg.Server.Random
	if rnd == nil {
		rnd = rand.Reader
	}
	var b [8]byte
	if _, err := io.ReadFull(rnd, b[:]); err != nil {
		return "", fmt.Errorf("auditor: drone id entropy: %w", err)
	}
	return "drone-" + hex.EncodeToString(b[:]), nil
}

// ---- Backend implementation ----

// RegisterDroneCtx issues a ring-routed drone ID and files the
// registration on the owning node.
func (r *Router) RegisterDroneCtx(ctx context.Context, req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	id, err := r.newDroneID()
	if err != nil {
		return protocol.RegisterDroneResponse{}, err
	}
	owner, isLocal := r.owner(id)
	if isLocal {
		return r.localShard(id).RegisterDroneWithID(ctx, id, req)
	}
	// The cluster-register door always executes locally on the receiver,
	// so no forwarded marker is needed (it can never hop again).
	return clusterPost[protocol.RegisterDroneResponse](ctx, r.client, owner.Addr,
		protocol.PathClusterRegister, protocol.ClusterRegisterRequest{DroneID: id, Req: req}, false)
}

// RegisterZone registers the zone on shard 0 (which issues the ID and
// journals it), mirrors it into the other local shards, and broadcasts
// it to every alive peer. Zones are replicated everywhere — they are
// read on every submission's sufficiency check, and the zone set is
// tiny next to the PoA stream.
func (r *Router) RegisterZone(req protocol.RegisterZoneRequest) (protocol.RegisterZoneResponse, error) {
	resp, err := r.shards[0].RegisterZone(req)
	if err != nil {
		return resp, err
	}
	r.replicateZone(resp.ZoneID)
	return resp, nil
}

// RegisterPolygonZone is RegisterZone for the polygon door.
func (r *Router) RegisterPolygonZone(req protocol.RegisterPolygonZoneRequest) (protocol.RegisterZoneResponse, error) {
	resp, err := r.shards[0].RegisterPolygonZone(req)
	if err != nil {
		return resp, err
	}
	r.replicateZone(resp.ZoneID)
	return resp, nil
}

// replicateZone copies one just-registered zone from shard 0 into the
// remaining local shards and to every alive peer (best-effort: a peer
// that misses the broadcast converges at the next handoff).
func (r *Router) replicateZone(zoneID string) {
	z, ok := r.shards[0].Zones().Get(zoneID)
	if !ok {
		return
	}
	for _, sh := range r.shards[1:] {
		if err := sh.Zones().Restore(z); err != nil {
			r.log.Warn(context.Background(), "zone shard mirror failed", "zone", zoneID, "err", err.Error())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, peer := range r.membership.Peers() {
		if _, err := clusterPost[struct{}](ctx, r.client, peer.Addr, protocol.PathClusterZone, []zone.NFZ{z}, false); err != nil {
			r.log.Warn(ctx, "zone broadcast failed", "zone", zoneID, "peer", peer.ID, "err", err.Error())
		}
	}
}

// ZoneQueryCtx routes by the querying drone: its record (operator key,
// nonce history) lives on the owner, and zones are replicated there.
func (r *Router) ZoneQueryCtx(ctx context.Context, req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	return routeDrone(ctx, r, req.DroneID, protocol.PathZoneQuery, req,
		func(s *Server) (protocol.ZoneQueryResponse, error) { return s.ZoneQueryCtx(ctx, req) })
}

// SubmitPoACtx routes a submission to the shard owning the drone. The
// forward hop prefers the owner's binary wire door when it advertises
// one — one Forward frame on a pooled connection instead of an HTTP
// round trip — falling back to HTTP only when the wire transport could
// not be reached at all (never after a frame may have been sent, which
// would trip the owner's replay detection).
func (r *Router) SubmitPoACtx(ctx context.Context, req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	return routeDroneVia(ctx, r, req.DroneID,
		func(s *Server) (protocol.SubmitPoAResponse, error) { return s.SubmitPoACtx(ctx, req) },
		func(fctx context.Context, owner cluster.Node) (protocol.SubmitPoAResponse, error) {
			if owner.WireAddr != "" {
				resp, err, sent := r.fwd.Submit(fctx, owner.WireAddr, req)
				if sent {
					otrace.FromContext(fctx).SetAttr("transport", "wire")
					return resp, err
				}
				r.log.Debug(fctx, "wire forward unavailable; using http",
					"owner", owner.ID, "err", err.Error())
			}
			otrace.FromContext(fctx).SetAttr("transport", "http")
			return clusterPost[protocol.SubmitPoAResponse](fctx, r.client, owner.Addr, protocol.PathSubmitPoA, req, true)
		})
}

// SubmitBatchPoACtx routes a batch submission.
func (r *Router) SubmitBatchPoACtx(ctx context.Context, req protocol.SubmitBatchPoARequest) (protocol.SubmitPoAResponse, error) {
	return routeDrone(ctx, r, req.DroneID, protocol.PathSubmitBatchPoA, req,
		func(s *Server) (protocol.SubmitPoAResponse, error) { return s.SubmitBatchPoACtx(ctx, req) })
}

// StartSession routes a session open; the session lands on the drone's
// shard, where the MAC submissions that follow will also route.
func (r *Router) StartSession(req protocol.StartSessionRequest) (protocol.StartSessionResponse, error) {
	return routeDrone(context.Background(), r, req.DroneID, protocol.PathStartSession, req,
		func(s *Server) (protocol.StartSessionResponse, error) { return s.StartSession(req) })
}

// SubmitMACPoACtx routes a symmetric-mode submission by its drone — the
// same key StartSession routed by, so the session is on the shard.
func (r *Router) SubmitMACPoACtx(ctx context.Context, req protocol.SubmitMACPoARequest) (protocol.SubmitPoAResponse, error) {
	return routeDrone(ctx, r, req.DroneID, protocol.PathSubmitMACPoA, req,
		func(s *Server) (protocol.SubmitPoAResponse, error) { return s.SubmitMACPoACtx(ctx, req) })
}

// SubmitSealedPoACtx routes a sealed-mode submission to the drone's shard.
func (r *Router) SubmitSealedPoACtx(ctx context.Context, req protocol.SubmitSealedPoARequest) (protocol.SubmitPoAResponse, error) {
	return routeDrone(ctx, r, req.DroneID, protocol.PathSubmitSealedPoA, req,
		func(s *Server) (protocol.SubmitPoAResponse, error) { return s.SubmitSealedPoACtx(ctx, req) })
}

// SubmitCommitPoACtx routes a commit-mode submission to the drone's shard.
func (r *Router) SubmitCommitPoACtx(ctx context.Context, req protocol.SubmitCommitPoARequest) (protocol.SubmitPoAResponse, error) {
	return routeDrone(ctx, r, req.DroneID, protocol.PathSubmitCommitPoA, req,
		func(s *Server) (protocol.SubmitPoAResponse, error) { return s.SubmitCommitPoACtx(ctx, req) })
}

// RevealCtx routes a selective-disclosure reveal to the drone's shard —
// the challenge and the retained commitment it answers live there.
func (r *Router) RevealCtx(ctx context.Context, req protocol.RevealRequest) (protocol.SubmitPoAResponse, error) {
	return routeDrone(ctx, r, req.DroneID, protocol.PathReveal, req,
		func(s *Server) (protocol.SubmitPoAResponse, error) { return s.RevealCtx(ctx, req) })
}

// RotateKeyCtx routes a TEE key rotation to the drone's shard.
func (r *Router) RotateKeyCtx(ctx context.Context, req protocol.RotateKeyRequest) (protocol.RotateKeyResponse, error) {
	return routeDrone(ctx, r, req.DroneID, protocol.PathRotateKey, req,
		func(s *Server) (protocol.RotateKeyResponse, error) { return s.RotateKeyCtx(ctx, req) })
}

// HandleAccusationCtx routes an accusation to the accused drone's shard
// (its retained PoAs live there).
func (r *Router) HandleAccusationCtx(ctx context.Context, droneID, zoneID string, at time.Time) (protocol.SubmitPoAResponse, error) {
	return routeDrone(ctx, r, droneID, protocol.PathAccuse,
		protocol.AccusationRequest{DroneID: droneID, ZoneID: zoneID, At: at},
		func(s *Server) (protocol.SubmitPoAResponse, error) {
			return s.HandleAccusationCtx(ctx, droneID, zoneID, at)
		})
}

// OpenStream routes a stream open by drone and records where the stream
// lives, so per-sample calls — which carry only the stream ID — route
// without a ring lookup.
func (r *Router) OpenStream(req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error) {
	owner, isLocal := r.owner(req.DroneID)
	if isLocal {
		sh := r.shardFor(req.DroneID)
		resp, err := r.shards[sh].OpenStream(req)
		if err == nil {
			r.streams.Store(resp.StreamID, streamRoute{local: true, shard: sh})
		}
		return resp, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.countForward(true)
	resp, err := clusterPost[protocol.OpenStreamResponse](ctx, r.client, owner.Addr, protocol.PathStreamOpen, req, true)
	if err == nil {
		r.streams.Store(resp.StreamID, streamRoute{node: owner.ID, addr: owner.Addr})
	}
	return resp, err
}

// streamRouteFor resolves where a stream lives. ok=false means this node
// never saw the stream open (it will answer ErrUnknownStream locally).
func (r *Router) streamRouteFor(streamID string) (streamRoute, bool) {
	v, ok := r.streams.Load(streamID)
	if !ok {
		return streamRoute{}, false
	}
	return v.(streamRoute), true
}

// StreamSampleCtx routes one stream sample to wherever the stream lives.
func (r *Router) StreamSampleCtx(ctx context.Context, req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error) {
	rt, ok := r.streamRouteFor(req.StreamID)
	switch {
	case ok && rt.local:
		if isForwarded(ctx) {
			r.countForward(false)
		}
		return r.shards[rt.shard].StreamSampleCtx(ctx, req)
	case ok:
		if isForwarded(ctx) {
			return protocol.StreamSampleResponse{}, &protocol.MisroutedError{DroneID: req.StreamID, Owner: rt.node}
		}
		r.countForward(true)
		return clusterPost[protocol.StreamSampleResponse](ctx, r.client, rt.addr, protocol.PathStreamSample, req, true)
	default:
		// Unknown here: let a local shard produce the canonical
		// ErrUnknownStream answer.
		return r.shards[0].StreamSampleCtx(ctx, req)
	}
}

// CloseStreamCtx routes a stream close and drops the route on success.
func (r *Router) CloseStreamCtx(ctx context.Context, req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	rt, ok := r.streamRouteFor(req.StreamID)
	switch {
	case ok && rt.local:
		if isForwarded(ctx) {
			r.countForward(false)
		}
		resp, err := r.shards[rt.shard].CloseStreamCtx(ctx, req)
		if err == nil {
			r.streams.Delete(req.StreamID)
		}
		return resp, err
	case ok:
		if isForwarded(ctx) {
			return protocol.SubmitPoAResponse{}, &protocol.MisroutedError{DroneID: req.StreamID, Owner: rt.node}
		}
		r.countForward(true)
		resp, err := clusterPost[protocol.SubmitPoAResponse](ctx, r.client, rt.addr, protocol.PathStreamClose, req, true)
		if err == nil {
			r.streams.Delete(req.StreamID)
		}
		return resp, err
	default:
		return r.shards[0].CloseStreamCtx(ctx, req)
	}
}

// EncryptionPub returns the cluster-shared PoA encryption public key.
func (r *Router) EncryptionPub() *rsa.PublicKey { return r.shards[0].EncryptionPub() }

// Zones exposes shard 0's registry; every zone is replicated to every
// shard, so it is a complete view.
func (r *Router) Zones() *zone.Registry { return r.shards[0].Zones() }

// Status aggregates the local shards' state. Zones are replicated to
// every shard, so the zone count is shard 0's, not the sum.
func (r *Router) Status() protocol.StatusResponse {
	var st protocol.StatusResponse
	for _, sh := range r.shards {
		s := sh.Status()
		st.Drones += s.Drones
		st.RetainedPoAs += s.RetainedPoAs
		st.OpenStreams += s.OpenStreams
		st.Sessions += s.Sessions
		st.Commitments += s.Commitments
	}
	st.Zones = r.shards[0].Status().Zones
	st.WireConnections = int(r.wireConns.Load())
	return st
}

// Metrics returns the shared metrics registry.
func (r *Router) Metrics() *obs.Registry { return r.cfg.Server.Metrics }

// Tracer returns the shared tracer.
func (r *Router) Tracer() *otrace.Tracer { return r.cfg.Server.Tracer }

// wireConnDelta implements WireBackend connection accounting.
func (r *Router) wireConnDelta(d int64) { r.wireConns.Add(d) }
