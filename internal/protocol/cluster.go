package protocol

// Cluster-layer wire surface: the endpoints auditor nodes use among
// themselves (forwarding, gossip, state handoff) and that routing
// clients use to learn the ring (/cluster/map). The payload of the map
// and gossip exchanges is owned by internal/cluster; this file only
// names the doors and the cross-node envelopes so operator clients and
// the auditor agree without importing each other.

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Cluster endpoint paths.
const (
	// PathClusterMap serves the versioned cluster map (GET): the
	// client-side routing contract.
	PathClusterMap = "/cluster/map"
	// PathClusterGossip accepts one membership digest (POST) and answers
	// with the receiver's digest — the HTTP fallback for peers without a
	// wire address.
	PathClusterGossip = "/cluster/gossip"
	// PathClusterRegister files a drone registration under a
	// router-issued ID on the owning node (POST, cluster-internal).
	PathClusterRegister = "/cluster/register"
	// PathClusterZone replicates a zone registration to a peer's shards
	// (POST, cluster-internal; receivers do not re-broadcast).
	PathClusterZone = "/cluster/zone"
	// PathClusterHandoff streams shard state to a new owner before the
	// ring change takes effect (POST, cluster-internal).
	PathClusterHandoff = "/cluster/handoff"
	// PathClusterKey serves the cluster's shared PoA encryption key to a
	// joining node (GET, cluster-internal; production deployments must
	// front this with an authenticated channel).
	PathClusterKey = "/cluster/key"
	// PathClusterMetrics serves the fleet-merged metrics exposition
	// (GET): the serving node scrapes every peer's /metrics, merges the
	// series (exact for fixed-bucket histograms) and answers with the
	// aggregate plus per-node series carrying a node label. Any node
	// answers for the whole fleet.
	PathClusterMetrics = "/cluster/metrics"
	// PathClusterStatus serves a fleet-wide JSON status snapshot (GET):
	// ring version, per-node membership state, per-shard counts, handoff
	// progress and SLO summaries. Any node answers for the whole fleet.
	PathClusterStatus = "/cluster/status"
	// PathClusterNodeStatus serves one node's own status fragment (GET,
	// cluster-internal): the per-node slice PathClusterStatus aggregates.
	PathClusterNodeStatus = "/cluster/nodestatus"
)

// PathReadyz is the readiness probe (GET): 200 once a node has recovered
// its shards and joined the ring, 503 with a reason otherwise. Routing
// clients treat a non-ready node as a redial target, not a routing
// destination. Distinct from /healthz, which only proves the process is
// alive.
const PathReadyz = "/readyz"

// ForwardedHeader marks a request as already forwarded once between
// auditor nodes. A node receiving a marked request for a drone it does
// not own answers ErrMisrouted instead of forwarding again — the
// single-hop guard that turns routing disagreement into a client-visible
// retry instead of a forwarding loop.
const ForwardedHeader = "X-Alidrone-Forwarded"

// ErrMisrouted is the sentinel for the single-hop guard: the receiving
// node does not own the drone and the request was already forwarded (or
// arrived on a cluster-internal door that never forwards). The HTTP
// transport maps it to 421 Misdirected Request; clients refresh their
// cluster map and retry.
var ErrMisrouted = errors.New("protocol: request misrouted past its owning node")

// MisroutedError carries the routing disagreement's details.
type MisroutedError struct {
	// DroneID is the key that was routed.
	DroneID string
	// Owner is the node the receiver believes owns it ("" when the
	// receiver has no ring).
	Owner string
}

// Error implements error.
func (e *MisroutedError) Error() string {
	return fmt.Sprintf("%v: drone %q (owner here: %q)", ErrMisrouted, e.DroneID, e.Owner)
}

// Unwrap makes errors.Is(err, ErrMisrouted) hold.
func (e *MisroutedError) Unwrap() error { return ErrMisrouted }

// ClusterRegisterRequest files a drone under an ID the routing layer
// already placed on the ring (the router issues IDs, the owner stores
// them).
type ClusterRegisterRequest struct {
	DroneID string               `json:"droneId"`
	Req     RegisterDroneRequest `json:"req"`
}

// ClusterHandoffRequest streams one node's shard state to the node that
// owns (part of) it under a newer map. State is the source shards' state
// as one framed record stream in the auditor's persistence schema, without
// the key pair; the receiver applies the records the new ring assigns to
// it and checkpoints before answering, so an acknowledged handoff is
// durable on the new owner.
type ClusterHandoffRequest struct {
	From       string `json:"from"`
	MapVersion uint64 `json:"mapVersion"`
	State      []byte `json:"state"`
}

// ClusterKeyResponse carries the cluster's shared PoA encryption key.
type ClusterKeyResponse struct {
	EncKey string `json:"encKey"`
}

// ClusterShardStatus is one shard's slice of a node status.
type ClusterShardStatus struct {
	Shard        string `json:"shard"` // shard tag (e.g. "node-1-s0")
	Drones       int    `json:"drones"`
	RetainedPoAs int    `json:"retainedPoAs"`
	OpenStreams  int    `json:"openStreams"`
	Sessions     int    `json:"sessions"`
	// WALSince counts WAL records appended since the shard's last
	// snapshot compaction (its durable backlog).
	WALSince uint64 `json:"walSince"`
}

// ClusterNodeStatus is one node's status fragment: what the node knows
// about itself, served on PathClusterNodeStatus and aggregated into
// ClusterStatusResponse.
type ClusterNodeStatus struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// State is the membership state the *reporting* node sees for this
	// node (alive/suspect/dead); a node always reports itself alive.
	State string `json:"state"`
	// RingVersion is the cluster-map version this node operates under;
	// disagreement across nodes means a membership change is still
	// propagating.
	RingVersion uint64               `json:"ringVersion"`
	Shards      []ClusterShardStatus `json:"shards"`
	// HandoffsSeen maps source node → highest map version whose handoff
	// this node has imported (rebalance progress).
	HandoffsSeen map[string]uint64 `json:"handoffsSeen,omitempty"`
	// SLO is the node's sliding-window latency/shed summary (the
	// obs.SLOSummary JSON; raw so the protocol layer stays decoupled
	// from the obs package). Empty when SLO tracking is disabled.
	SLO json.RawMessage `json:"slo,omitempty"`
	// WireConnections is the node's live binary-transport connections.
	WireConnections int `json:"wireConnections"`
	// Err is set on the aggregating node when this peer could not be
	// reached; the other fields are then zero.
	Err string `json:"err,omitempty"`
}

// ClusterStatusResponse is the fleet-wide status snapshot.
type ClusterStatusResponse struct {
	// FetchedFrom is the node that served the aggregation.
	FetchedFrom string `json:"fetchedFrom"`
	// RingVersion is the serving node's cluster-map version.
	RingVersion uint64              `json:"ringVersion"`
	Nodes       []ClusterNodeStatus `json:"nodes"`
}
