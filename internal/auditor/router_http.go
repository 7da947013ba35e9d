package auditor

// The cluster-internal HTTP surface: the doors auditor nodes use among
// themselves. They are registered only when the handler's backend is a
// cluster node (the Router), so a single-node auditor exposes exactly
// the surface it always did.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/zone"
)

// clusterBackend is the extra surface a routing backend exposes to the
// transports: the cluster map, gossip, and the cluster-internal doors.
// Only *Router implements it; the assertion in NewHandlerOpts is how
// cluster routes light up.
type clusterBackend interface {
	Backend
	clusterMapJSON() ([]byte, error)
	gossipExchange(digestJSON []byte) ([]byte, error)
	clusterRegister(ctx context.Context, req protocol.ClusterRegisterRequest) (protocol.RegisterDroneResponse, error)
	clusterZoneImport(zs []zone.NFZ) error
	clusterHandoff(ctx context.Context, req protocol.ClusterHandoffRequest) error
	clusterKey() (protocol.ClusterKeyResponse, error)
	nodeStatus() protocol.ClusterNodeStatus
	clusterStatus(ctx context.Context) protocol.ClusterStatusResponse
	fleetMetrics(ctx context.Context, w io.Writer) error
}

var _ clusterBackend = (*Router)(nil)

// registerClusterRoutes mounts the cluster-internal doors. They are
// registered bare (no per-endpoint request metrics): node-to-node
// chatter is not client traffic.
func (h *Handler) registerClusterRoutes(cb clusterBackend) {
	h.mux.HandleFunc(protocol.PathClusterMap, get(func(w http.ResponseWriter, r *http.Request) {
		js, err := cb.clusterMapJSON()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(js)
	}))
	h.mux.HandleFunc(protocol.PathClusterGossip, post(func(w http.ResponseWriter, r *http.Request) {
		digest, err := readBody(r)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		reply, err := cb.gossipExchange(digest)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply)
	}))
	h.mux.HandleFunc(protocol.PathClusterRegister, post(func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, cb.clusterRegister)
	}))
	h.mux.HandleFunc(protocol.PathClusterZone, post(func(w http.ResponseWriter, r *http.Request) {
		handleJSON(w, r, func(_ context.Context, zs []zone.NFZ) (struct{}, error) {
			return struct{}{}, cb.clusterZoneImport(zs)
		})
	}))
	h.mux.HandleFunc(protocol.PathClusterHandoff, post(func(w http.ResponseWriter, r *http.Request) {
		// The install continues the sender's rebalance trace, so one
		// rebalance reads as export → stream → install across nodes.
		ctx, sp := h.srv.Tracer().StartRemote(r.Context(),
			r.Header.Get(protocol.HeaderTraceParent), "cluster.handoff.install")
		r = r.WithContext(ctx)
		handleJSON(w, r, func(ctx context.Context, req protocol.ClusterHandoffRequest) (struct{}, error) {
			sp.SetAttr("from", req.From)
			err := cb.clusterHandoff(ctx, req)
			sp.SetError(err)
			return struct{}{}, err
		})
		sp.End()
	}))
	h.mux.HandleFunc(protocol.PathClusterKey, get(func(w http.ResponseWriter, r *http.Request) {
		resp, err := cb.clusterKey()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	h.mux.HandleFunc(protocol.PathClusterMetrics, get(func(w http.ResponseWriter, r *http.Request) {
		// Merge into a buffer first so a mid-aggregation failure can still
		// answer with a clean 500 instead of a torn exposition.
		var buf bytes.Buffer
		if err := cb.fleetMetrics(r.Context(), &buf); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	}))
	h.mux.HandleFunc(protocol.PathClusterStatus, get(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cb.clusterStatus(r.Context()))
	}))
	h.mux.HandleFunc(protocol.PathClusterNodeStatus, get(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cb.nodeStatus())
	}))
}

// readBody slurps a small request body (gossip digests).
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(io.LimitReader(r.Body, 64<<10))
}

// ---- Router's clusterBackend implementation ----

// clusterMapJSON serialises the current map for /cluster/map.
func (r *Router) clusterMapJSON() ([]byte, error) {
	return json.Marshal(r.membership.Map())
}

// gossipExchange merges one peer digest and answers with ours — the
// receive half of the anti-entropy exchange. A contact also proves the
// sender alive, which is what lets a restarted node rejoin.
func (r *Router) gossipExchange(digestJSON []byte) ([]byte, error) {
	var d cluster.Digest
	if err := json.Unmarshal(digestJSON, &d); err != nil {
		return nil, err
	}
	r.membership.Merge(d)
	r.joined.Store(true)
	return json.Marshal(r.membership.Digest())
}

// clusterRegister files a router-issued registration locally — the
// receiver IS the owner the sender routed to, so this door never
// forwards (and therefore never loops).
func (r *Router) clusterRegister(ctx context.Context, req protocol.ClusterRegisterRequest) (protocol.RegisterDroneResponse, error) {
	return r.localShard(req.DroneID).RegisterDroneWithID(ctx, req.DroneID, req.Req)
}

// clusterZoneImport replicates peer-registered zones into every local
// shard. Import is Restore-based (idempotent, no re-broadcast), so a
// zone bouncing between peers converges instead of echoing.
func (r *Router) clusterZoneImport(zs []zone.NFZ) error {
	var firstErr error
	for _, sh := range r.shards {
		for _, z := range zs {
			if err := sh.Zones().Restore(z); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// clusterKey serves the shared PoA encryption key to a joining node.
// Cluster-internal: production deployments must front this with an
// authenticated channel (DESIGN.md §11).
func (r *Router) clusterKey() (protocol.ClusterKeyResponse, error) {
	enc, err := sigcrypto.MarshalPrivateKey(r.shards[0].EncryptionKey())
	if err != nil {
		return protocol.ClusterKeyResponse{}, err
	}
	return protocol.ClusterKeyResponse{EncKey: enc}, nil
}
