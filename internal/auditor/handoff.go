package auditor

// Shard handoff: when the ring changes (a node joins, or a map learned
// via gossip reassigns drones), the previous owner streams its shards'
// state to the new owners so verification state — drone records and key
// rings, retained PoAs and disclosures, replay digests, nonces, zones —
// survives the move.
//
// The protocol is deliberately coarse: the source sends every local
// shard's full record stream (the snapshot schema minus the key pair — see
// Server.exportRecords) to every peer, and each receiver applies only the
// records the current ring assigns to it, then checkpoints its shards
// before acknowledging. A checkpointed import is durable on the new owner
// — that checkpoint, not a per-record WAL append, is the durability
// carrier for moved state (the kill-point recovery test exercises exactly
// this). The source keeps its copy: a mis-routed request still answers
// there until clients refresh their map, and the single-hop guard turns
// any residual disagreement into a 421 rather than a loop.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/protocol"
	"repro/internal/storage"
)

// Rebalance exports every local shard's record stream and sends the bundle
// to every alive peer. Receivers filter by ownership, so sending to all
// peers is correct (if wasteful) under any ring disagreement. It is
// invoked automatically when the membership map changes and can be
// called explicitly (tests, an operator-triggered drain).
func (r *Router) Rebalance(ctx context.Context) error {
	m := r.membership.Map()
	peers := r.membership.Peers()
	if len(peers) == 0 {
		return nil
	}
	start := r.clock.Now()

	// One rebalance = one trace: the export span roots it, each peer
	// stream is a child, and the peer's install — continuing via the
	// traceparent clusterPost injects — hangs underneath its stream.
	ectx, esp := r.tracer().StartSpan(ctx, "cluster.handoff.export")
	esp.SetAttr("mapVersion", fmt.Sprint(m.Version))

	// Hold the handoff lock only for the export: streaming to peers under
	// it would deadlock two nodes rebalancing toward each other (each
	// POST waits on an import that waits on the sender's own lock).
	r.handoffMu.Lock()
	state, err := r.exportHandoff()
	r.handoffMu.Unlock()
	esp.SetError(err)
	esp.End()
	if err != nil {
		return err
	}
	req := protocol.ClusterHandoffRequest{From: r.cfg.Self.ID, MapVersion: m.Version, State: state}

	var firstErr error
	for _, peer := range peers {
		sctx, ssp := r.tracer().StartSpan(ectx, "cluster.handoff.stream")
		ssp.SetAttr("peer", peer.ID)
		_, err := clusterPost[struct{}](sctx, r.client, peer.Addr, protocol.PathClusterHandoff, req, false)
		ssp.SetError(err)
		ssp.End()
		if err != nil {
			r.log.Warn(ctx, "handoff failed", "peer", peer.ID, "err", err.Error())
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if r.handoffSeconds != nil {
		r.handoffSeconds.Observe(r.clock.Now().Sub(start).Seconds())
	}
	return firstErr
}

// exportHandoff concatenates every local shard's handoff record stream;
// frames are self-delimiting, so the result is one valid stream.
func (r *Router) exportHandoff() ([]byte, error) {
	var state []byte
	for i, sh := range r.shards {
		data, err := sh.exportRecords(true)
		if err != nil {
			return nil, fmt.Errorf("cluster: handoff export shard %d: %w", i, err)
		}
		state = append(state, data...)
	}
	return state, nil
}

// clusterHandoff imports the slice of a peer's state that the current
// ring assigns to this node, checkpoints the shards, and only then
// acknowledges. Re-deliveries of the same (source, map version) are
// dropped so repeated rebalance rounds never duplicate retained PoAs.
func (r *Router) clusterHandoff(ctx context.Context, req protocol.ClusterHandoffRequest) error {
	r.handoffMu.Lock()
	defer r.handoffMu.Unlock()

	if req.MapVersion <= r.handoffsSeen[req.From] {
		return nil
	}
	start := r.clock.Now()

	recs, err := storage.DecodeRecords(req.State)
	if err != nil {
		return fmt.Errorf("cluster: handoff from %s: %w", req.From, err)
	}
	for i, rec := range recs {
		if err := r.importRecord(rec); err != nil {
			return fmt.Errorf("cluster: handoff from %s: record %d: %w", req.From, i, err)
		}
	}
	if err := r.Checkpoint(); err != nil {
		return fmt.Errorf("cluster: handoff checkpoint: %w", err)
	}
	r.handoffsSeen[req.From] = req.MapVersion
	if r.handoffSeconds != nil {
		r.handoffSeconds.Observe(r.clock.Now().Sub(start).Seconds())
	}
	r.log.Info(ctx, "handoff imported", "from", req.From, "mapVersion", req.MapVersion, "records", len(recs))
	return nil
}

// importRecord routes one handed-over record by kind. Drone-keyed kinds
// (registration, rotation, retained PoA, retained disclosure) go to the
// local shard owning the drone, and nowhere when the current ring gives
// the drone to another node. Zones, replay digests and nonces are
// safety-relevant on every shard and are applied everywhere —
// over-approximating the replay set can only reject a replay that would
// otherwise slip through, never a fresh submission. The cluster's key
// pair is settled at start-up and is refused here: a handoff that carries
// it would be re-keying live shards.
func (r *Router) importRecord(rec storage.Record) error {
	if rec.Kind == recEncKey {
		return errors.New("handoff carries the PoA key pair")
	}
	droneID, err := recordDrone(rec)
	if err != nil {
		return err
	}
	if droneID != "" {
		if _, isLocal := r.owner(droneID); !isLocal {
			return nil
		}
		return r.localShard(droneID).applyRecord(rec)
	}
	for _, sh := range r.shards {
		if err := sh.applyRecord(rec); err != nil {
			return err
		}
	}
	return nil
}
