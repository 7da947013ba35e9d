package operator

// ClusterAuditor fronts a sharded auditor cluster: it fetches the
// versioned cluster map from a seed node, routes every drone-keyed call
// to the owning node directly (the common case — zero forwards), and
// falls back on the cluster's own single-hop forwarding when its map is
// stale. A node answering 421 Misdirected Request, or not answering at
// all, triggers one map refresh and one re-route; non-ready nodes
// (starting up, still recovering their shards) are skipped in favour of
// a ready node that forwards.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

// ClusterAuditor is a protocol.API implementation that routes calls
// across the nodes of a sharded auditor cluster.
type ClusterAuditor struct {
	seeds []string // seed base URLs, e.g. "http://127.0.0.1:8470"
	hc    *http.Client
	retry RetryPolicy

	mu      sync.Mutex
	m       *cluster.Map
	clients map[string]*HTTPAuditor // base URL -> client
	streams map[string]*HTTPAuditor // streamID -> node that opened it
}

var (
	_ protocol.API      = (*ClusterAuditor)(nil)
	_ protocol.ModesAPI = (*ClusterAuditor)(nil)
)

// NewClusterAuditor creates a routing client over the given seed URLs
// (at least one; no trailing slashes). client defaults to
// http.DefaultClient.
func NewClusterAuditor(seeds []string, client *http.Client) *ClusterAuditor {
	if client == nil {
		client = http.DefaultClient
	}
	return &ClusterAuditor{
		seeds:   seeds,
		hc:      client,
		clients: make(map[string]*HTTPAuditor),
		streams: make(map[string]*HTTPAuditor),
	}
}

// SetRetryPolicy sets the per-node retry policy applied by the
// underlying HTTP clients (created lazily, so call before routing).
func (c *ClusterAuditor) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// baseURL derives the client base URL for a cluster node.
func baseURL(n cluster.Node) string { return "http://" + n.Addr }

// clientFor returns (creating on first use) the HTTPAuditor for a base
// URL. Callers hold c.mu.
func (c *ClusterAuditor) clientFor(base string) *HTTPAuditor {
	if cl, ok := c.clients[base]; ok {
		return cl
	}
	cl := NewHTTPAuditor(base, c.hc)
	cl.SetRetryPolicy(c.retry)
	c.clients[base] = cl
	return cl
}

// RefreshMap fetches the cluster map from every seed and every known
// node, keeping the highest version seen. It fails only when no node
// answers at all.
func (c *ClusterAuditor) RefreshMap() error {
	c.mu.Lock()
	bases := append([]string(nil), c.seeds...)
	if c.m != nil {
		for _, n := range c.m.Nodes {
			bases = append(bases, baseURL(n))
		}
	}
	c.mu.Unlock()

	var best *cluster.Map
	var firstErr error
	for _, base := range bases {
		m, err := c.fetchMap(base)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || m.Version > best.Version {
			best = m
		}
	}
	if best == nil {
		return fmt.Errorf("cluster map: no node reachable: %w", firstErr)
	}
	c.mu.Lock()
	if c.m == nil || best.Version > c.m.Version {
		c.m = best
	}
	c.mu.Unlock()
	return nil
}

// fetchMap GETs one node's /cluster/map.
func (c *ClusterAuditor) fetchMap(base string) (*cluster.Map, error) {
	resp, err := c.hc.Get(base + protocol.PathClusterMap)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Path: protocol.PathClusterMap, Code: resp.StatusCode}
	}
	var m cluster.Map
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// ready probes a node's readiness door: liveness is not enough, a node
// that has not recovered its shards or joined the ring would shed or
// mis-handle routed traffic.
func (c *ClusterAuditor) ready(base string) bool {
	resp, err := c.hc.Get(base + protocol.PathReadyz)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// routeTo picks the node for droneID: the owner when it is ready, else
// any ready node (the cluster forwards on our behalf). An empty droneID
// (pre-registration) routes to any ready node. The map is fetched
// lazily on first use.
func (c *ClusterAuditor) routeTo(droneID string) (*HTTPAuditor, error) {
	c.mu.Lock()
	m := c.m
	c.mu.Unlock()
	if m == nil {
		if err := c.RefreshMap(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		m = c.m
		c.mu.Unlock()
	}

	var candidates []string
	if droneID != "" {
		if owner, ok := m.Owner(droneID); ok {
			candidates = append(candidates, baseURL(owner))
		}
	}
	for _, n := range m.Nodes {
		b := baseURL(n)
		if len(candidates) == 0 || b != candidates[0] {
			candidates = append(candidates, b)
		}
	}
	if len(candidates) == 0 {
		return nil, errors.New("cluster map lists no nodes")
	}
	for _, b := range candidates {
		if c.ready(b) {
			c.mu.Lock()
			cl := c.clientFor(b)
			c.mu.Unlock()
			return cl, nil
		}
	}
	// Nobody admits readiness (probe races, tiny test clusters): try the
	// best candidate anyway rather than failing a routable call.
	c.mu.Lock()
	cl := c.clientFor(candidates[0])
	c.mu.Unlock()
	return cl, nil
}

// shouldReroute reports whether an error means our map was stale (421
// from a node that no longer owns the drone) or the node is gone
// (transport error) — both cured by a refresh and one re-route.
func shouldReroute(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusMisdirectedRequest
	}
	return true // transport-level failure: node unreachable
}

// route runs call(node, req) against the owning node, refreshing the map
// and re-routing exactly once when the first attempt hit a stale map or
// a dead node.
func route[Req, Resp any](c *ClusterAuditor, droneID string, call func(*HTTPAuditor, Req) (Resp, error), req Req) (Resp, error) {
	var zero Resp
	cl, err := c.routeTo(droneID)
	if err != nil {
		return zero, err
	}
	resp, err := call(cl, req)
	if err == nil || !shouldReroute(err) {
		return resp, err
	}
	if rerr := c.RefreshMap(); rerr != nil {
		return zero, err
	}
	cl2, rerr := c.routeTo(droneID)
	if rerr != nil || cl2 == cl {
		return resp, err
	}
	return call(cl2, req)
}

// RegisterDrone implements protocol.API. Registration is routed to any
// ready node; the cluster issues the drone ID and files the record on
// the owning node, so the caller need not (and cannot) pre-route it.
func (c *ClusterAuditor) RegisterDrone(req protocol.RegisterDroneRequest) (protocol.RegisterDroneResponse, error) {
	return route(c, "", (*HTTPAuditor).RegisterDrone, req)
}

// RegisterZone implements protocol.API. Any node accepts a zone and
// replicates it cluster-wide.
func (c *ClusterAuditor) RegisterZone(req protocol.RegisterZoneRequest) (protocol.RegisterZoneResponse, error) {
	return route(c, "", (*HTTPAuditor).RegisterZone, req)
}

// ZoneQuery implements protocol.API.
func (c *ClusterAuditor) ZoneQuery(req protocol.ZoneQueryRequest) (protocol.ZoneQueryResponse, error) {
	return route(c, req.DroneID, (*HTTPAuditor).ZoneQuery, req)
}

// SubmitPoA implements protocol.API.
func (c *ClusterAuditor) SubmitPoA(req protocol.SubmitPoARequest) (protocol.SubmitPoAResponse, error) {
	return route(c, req.DroneID, (*HTTPAuditor).SubmitPoA, req)
}

// SubmitBatchPoA implements protocol.ModesAPI.
func (c *ClusterAuditor) SubmitBatchPoA(req protocol.SubmitBatchPoARequest) (protocol.SubmitPoAResponse, error) {
	return route(c, req.DroneID, (*HTTPAuditor).SubmitBatchPoA, req)
}

// StartSession implements protocol.ModesAPI.
func (c *ClusterAuditor) StartSession(req protocol.StartSessionRequest) (protocol.StartSessionResponse, error) {
	return route(c, req.DroneID, (*HTTPAuditor).StartSession, req)
}

// SubmitMACPoA implements protocol.ModesAPI.
func (c *ClusterAuditor) SubmitMACPoA(req protocol.SubmitMACPoARequest) (protocol.SubmitPoAResponse, error) {
	return route(c, req.DroneID, (*HTTPAuditor).SubmitMACPoA, req)
}

// RotateKey implements protocol.RotationAPI.
func (c *ClusterAuditor) RotateKey(req protocol.RotateKeyRequest) (protocol.RotateKeyResponse, error) {
	return route(c, req.DroneID, (*HTTPAuditor).RotateKey, req)
}

// OpenStream implements protocol.StreamAPI. The node that opens a
// stream holds its incremental state, so subsequent samples pin to it.
func (c *ClusterAuditor) OpenStream(req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error) {
	var opened *HTTPAuditor
	resp, err := route(c, req.DroneID, func(cl *HTTPAuditor, req protocol.OpenStreamRequest) (protocol.OpenStreamResponse, error) {
		opened = cl
		return cl.OpenStream(req)
	}, req)
	if err == nil && resp.StreamID != "" {
		c.mu.Lock()
		c.streams[resp.StreamID] = opened
		c.mu.Unlock()
	}
	return resp, err
}

// streamClient resolves the node a stream was opened on.
func (c *ClusterAuditor) streamClient(streamID string) (*HTTPAuditor, error) {
	c.mu.Lock()
	cl, ok := c.streams[streamID]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("unknown stream %q (not opened through this client)", streamID)
	}
	return cl, nil
}

// StreamSample implements protocol.StreamAPI.
func (c *ClusterAuditor) StreamSample(req protocol.StreamSampleRequest) (protocol.StreamSampleResponse, error) {
	cl, err := c.streamClient(req.StreamID)
	if err != nil {
		return protocol.StreamSampleResponse{}, err
	}
	return cl.StreamSample(req)
}

// CloseStream implements protocol.StreamAPI.
func (c *ClusterAuditor) CloseStream(req protocol.CloseStreamRequest) (protocol.SubmitPoAResponse, error) {
	cl, err := c.streamClient(req.StreamID)
	if err != nil {
		return protocol.SubmitPoAResponse{}, err
	}
	defer func() {
		c.mu.Lock()
		delete(c.streams, req.StreamID)
		c.mu.Unlock()
	}()
	return cl.CloseStream(req)
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

// ClusterStatus fetches the fleet status from the first seed or known
// node that answers.
func (c *ClusterAuditor) ClusterStatus() (protocol.ClusterStatusResponse, error) {
	c.mu.Lock()
	bases := append([]string(nil), c.seeds...)
	if c.m != nil {
		for _, n := range c.m.Nodes {
			bases = append(bases, baseURL(n))
		}
	}
	c.mu.Unlock()
	var firstErr error
	for _, base := range bases {
		st, err := FetchClusterStatus(c.hc, base)
		if err == nil {
			return st, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return protocol.ClusterStatusResponse{}, fmt.Errorf("cluster status: no node reachable: %w", firstErr)
}

// MapVersion reports the version of the map the client currently routes
// by (0 = no map fetched yet). Diagnostic.
func (c *ClusterAuditor) MapVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		return 0
	}
	return c.m.Version
}

// injectMap force-feeds a (possibly stale) map; tests use it to
// exercise the refresh-and-reroute fallback deterministically.
func (c *ClusterAuditor) injectMap(m *cluster.Map) {
	c.mu.Lock()
	c.m = m
	c.mu.Unlock()
}
