package auditor

import (
	"bytes"
	"context"
	"crypto/rsa"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/operator"
	"repro/internal/poa"
	"repro/internal/protocol"
	"repro/internal/sigcrypto"
	"repro/internal/storage"
)

// testCluster is an in-process N-node auditor cluster: every node runs a
// Router over real shard Servers behind a real HTTP listener, with the
// full node set as seeds so the very first map is complete and tests
// need no gossip warm-up.
type testCluster struct {
	routers []*Router
	servers []*httptest.Server
	nodes   []cluster.Node
	encKey  *rsa.PrivateKey
}

// newTestCluster builds the cluster. Listeners are bound before the
// routers so each node knows every address up front.
func newTestCluster(t *testing.T, n, shards int, mut func(i int, rc *RouterConfig)) *testCluster {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	encKey, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}

	tc := &testCluster{encKey: encKey}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		tc.nodes = append(tc.nodes, cluster.Node{
			ID:   fmt.Sprintf("node-%d", i),
			Addr: lis.Addr().String(),
		})
	}
	for i := 0; i < n; i++ {
		rc := RouterConfig{
			Self:   tc.nodes[i],
			Seeds:  tc.nodes,
			Shards: shards,
			Server: Config{
				Clock:         obs.ClockFunc(func() time.Time { return t0 }),
				Metrics:       obs.NewRegistry(nil),
				EncryptionKey: encKey,
			},
		}
		if mut != nil {
			mut(i, &rc)
		}
		r, err := NewRouter(rc)
		if err != nil {
			t.Fatal(err)
		}
		tc.routers = append(tc.routers, r)
		hs := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: NewHandler(r)},
		}
		hs.Start()
		tc.servers = append(tc.servers, hs)
	}
	t.Cleanup(func() {
		for i := range tc.servers {
			tc.servers[i].Close()
			tc.routers[i].Close()
		}
	})
	return tc
}

// url returns node i's base URL.
func (tc *testCluster) url(i int) string { return "http://" + tc.nodes[i].Addr }

// registerDrone registers a fresh drone through node i's HTTP door and
// returns its cluster-issued ID and keys.
func (tc *testCluster) registerDrone(t *testing.T, i int, rng *rand.Rand) (string, droneKeys) {
	t.Helper()
	op, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	tee, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	opPub, _ := sigcrypto.MarshalPublicKey(&op.PublicKey)
	teePub, _ := sigcrypto.MarshalPublicKey(&tee.PublicKey)
	resp := postJSON(t, tc.url(i)+protocol.PathRegisterDrone,
		protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register via node %d: HTTP %d", i, resp.StatusCode)
	}
	var rr protocol.RegisterDroneResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.DroneID == "" {
		t.Fatal("empty cluster drone ID")
	}
	return rr.DroneID, droneKeys{op: op, tee: tee}
}

// encryptPoA encrypts a PoA to the cluster's shared key.
func encryptPoA(t *testing.T, pub *rsa.PublicKey, p poa.PoA) []byte {
	t.Helper()
	plaintext, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return encryptBytesTo(t, pub, plaintext)
}

// ownerIndex resolves which node of tc owns droneID (per node 0's map;
// all maps agree when the seed set is complete).
func (tc *testCluster) ownerIndex(t *testing.T, droneID string) int {
	t.Helper()
	owner, ok := tc.routers[0].Map().Owner(droneID)
	if !ok {
		t.Fatalf("no owner for %q", droneID)
	}
	for i, n := range tc.nodes {
		if n.ID == owner.ID {
			return i
		}
	}
	t.Fatalf("owner %q not in cluster", owner.ID)
	return -1
}

// submitVia POSTs a PoA submission through node i's public HTTP door and
// returns the status code and decoded response.
func (tc *testCluster) submitVia(t *testing.T, i int, req protocol.SubmitPoARequest) (int, protocol.SubmitPoAResponse) {
	t.Helper()
	resp := postJSON(t, tc.url(i)+protocol.PathSubmitPoA, req)
	var sr protocol.SubmitPoAResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

// forwardsOut reads node i's outgoing-forward counter.
func (tc *testCluster) forwardsOut(i int) uint64 {
	return tc.routers[i].cfg.Server.Metrics.Counter(obs.L(MetricClusterForwardsTotal, "dir", "out")).Value()
}

// TestClusterTwoNodeSmoke is the end-to-end cluster door check.sh runs:
// register a drone on node A, submit its PoA to node B, and expect the
// verdict to come back compliant — directly when B owns the drone, via
// exactly one transparent forward when it does not.
func TestClusterTwoNodeSmoke(t *testing.T) {
	tc := newTestCluster(t, 2, 2, nil)
	rng := rand.New(rand.NewSource(1))

	droneID, keys := tc.registerDrone(t, 0, rng)
	owner := tc.ownerIndex(t, droneID)
	nonOwner := 1 - owner

	trace := signedTrace(t, keys, urbana, 90, 10, 5, time.Second)
	before := tc.forwardsOut(nonOwner)
	status, sr := tc.submitVia(t, nonOwner, protocol.SubmitPoARequest{
		DroneID:      droneID,
		EncryptedPoA: encryptPoA(t, tc.routers[0].EncryptionPub(), trace),
	})
	if status != http.StatusOK {
		t.Fatalf("submit via non-owner node %d: HTTP %d", nonOwner, status)
	}
	if sr.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %q, want compliant (%s)", sr.Verdict, sr.Reason)
	}
	if got := tc.forwardsOut(nonOwner) - before; got != 1 {
		t.Errorf("non-owner forwarded %d times, want exactly 1", got)
	}
}

// TestClusterForwardedVerdictParity is the routed-via-non-owner door of
// the verdict-parity suite: for every drone, the same logical submission
// must yield the identical verdict whether it enters at the owning node
// or at a non-owner (which forwards exactly once). Compliant and
// violation traces are both exercised.
func TestClusterForwardedVerdictParity(t *testing.T) {
	tc := newTestCluster(t, 2, 2, nil)
	rng := rand.New(rand.NewSource(2))

	// A zone registered through any node replicates cluster-wide, so the
	// violation verdict must not depend on the entry node either.
	zresp := postJSON(t, tc.url(0)+protocol.PathRegisterZone, protocol.RegisterZoneRequest{
		Owner: "alice", Zone: geo.GeoCircle{Center: urbana, R: 200}, OwnershipProof: "deed",
	})
	if zresp.StatusCode != http.StatusOK {
		t.Fatalf("register zone: HTTP %d", zresp.StatusCode)
	}

	type door struct {
		name      string
		violation bool
	}
	for _, d := range []door{{"compliant", false}, {"violation", true}} {
		t.Run(d.name, func(t *testing.T) {
			// Two drones with the same trace shape: one submits at its
			// owner, one at the other node. Verdicts must agree.
			var verdicts []protocol.Verdict
			for _, direct := range []bool{true, false} {
				droneID, keys := tc.registerDrone(t, 0, rng)
				owner := tc.ownerIndex(t, droneID)
				entry := owner
				if !direct {
					entry = 1 - owner
				}
				start := urbana
				if !d.violation {
					start = urbana.Offset(0, 5000) // well clear of the zone
				}
				trace := signedTrace(t, keys, start, 90, 10, 5, time.Second)
				before := tc.forwardsOut(entry)
				status, sr := tc.submitVia(t, entry, protocol.SubmitPoARequest{
					DroneID:      droneID,
					EncryptedPoA: encryptPoA(t, tc.routers[0].EncryptionPub(), trace),
				})
				if status != http.StatusOK {
					t.Fatalf("submit (direct=%v): HTTP %d", direct, status)
				}
				wantForwards := uint64(0)
				if !direct {
					wantForwards = 1
				}
				if got := tc.forwardsOut(entry) - before; got != wantForwards {
					t.Errorf("entry node forwarded %d times, want %d", got, wantForwards)
				}
				verdicts = append(verdicts, sr.Verdict)
			}
			if verdicts[0] != verdicts[1] {
				t.Fatalf("verdict parity broken: owner door %q vs forwarded door %q", verdicts[0], verdicts[1])
			}
			wantViolation := verdicts[0] == protocol.VerdictViolation
			if wantViolation != d.violation {
				t.Fatalf("verdict = %q for %s trace", verdicts[0], d.name)
			}
		})
	}
}

// TestClusterSingleHopGuard verifies the forwarding loop-breaker: a
// request already marked forwarded that lands on a non-owner answers 421
// Misdirected Request instead of forwarding again.
func TestClusterSingleHopGuard(t *testing.T) {
	tc := newTestCluster(t, 2, 1, nil)
	rng := rand.New(rand.NewSource(3))
	droneID, keys := tc.registerDrone(t, 0, rng)
	nonOwner := 1 - tc.ownerIndex(t, droneID)

	trace := signedTrace(t, keys, urbana, 90, 10, 3, time.Second)
	body, _ := json.Marshal(protocol.SubmitPoARequest{
		DroneID:      droneID,
		EncryptedPoA: encryptPoA(t, tc.routers[0].EncryptionPub(), trace),
	})
	req, err := http.NewRequest(http.MethodPost, tc.url(nonOwner)+protocol.PathSubmitPoA, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(protocol.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("forwarded request to non-owner: HTTP %d, want 421", resp.StatusCode)
	}
}

// TestClusterReadyz verifies the liveness/readiness split: a node that
// has not joined the ring answers 503 on /readyz (while /healthz stays
// 200), and flips to 200 after its first successful gossip exchange.
func TestClusterReadyz(t *testing.T) {
	tc := newTestCluster(t, 2, 1, nil)

	// A third node seeded with the others but not yet gossiped-with is
	// alive but not ready.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := cluster.Node{ID: "node-late", Addr: lis.Addr().String()}
	r, err := NewRouter(RouterConfig{
		Self:  self,
		Seeds: append(append([]cluster.Node(nil), tc.nodes...), self),
		Server: Config{
			Clock:         obs.ClockFunc(func() time.Time { return t0 }),
			EncryptionKey: tc.encKey,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := &httptest.Server{Listener: lis, Config: &http.Server{Handler: NewHandler(r)}}
	hs.Start()
	t.Cleanup(func() { hs.Close(); r.Close() })

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + self.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, _ := get(PathHealthz); code != http.StatusOK {
		t.Fatalf("healthz on unjoined node: HTTP %d", code)
	}
	code, body := get(PathReadyz)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz on unjoined node: HTTP %d, want 503", code)
	}
	// The 503 must say why, so an operator reading the probe output can
	// tell a slow WAL recovery from a node that never joined the ring.
	if !strings.HasPrefix(body, "not ready: ") {
		t.Fatalf("readyz 503 body %q lacks a reason", body)
	}
	// One gossip round against a seed joins the ring.
	r.Gossiper().RunOnce(context.Background())
	if code, _ := get(PathReadyz); code != http.StatusOK {
		t.Fatalf("readyz after gossip join: HTTP %d, want 200", code)
	}
}

// TestClusterHandoffKillPoint exercises the durability contract of the
// handoff protocol: state moved to a new owner survives that owner being
// killed immediately after it acknowledged, because the receiver
// checkpoints the touched shards before answering.
func TestClusterHandoffKillPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dirA, dirB := t.TempDir(), t.TempDir()

	nodeA := cluster.Node{ID: "node-a", Addr: "127.0.0.1:1"} // never dialled
	nodeB := cluster.Node{ID: "node-b"}
	lisB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodeB.Addr = lisB.Addr().String()

	encKey, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	serverCfg := func() Config {
		return Config{
			Clock:         obs.ClockFunc(func() time.Time { return t0 }),
			EncryptionKey: encKey,
		}
	}

	// Node A starts as the sole owner, accumulates drones and verified
	// PoAs.
	rA, err := NewRouter(RouterConfig{Self: nodeA, Shards: 2, StateDir: dirA, Server: serverCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer rA.Close()

	ctx := context.Background()
	type drone struct {
		id   string
		keys droneKeys
	}
	var drones []drone
	for i := 0; i < 8; i++ {
		op, _ := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
		tee, _ := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
		opPub, _ := sigcrypto.MarshalPublicKey(&op.PublicKey)
		teePub, _ := sigcrypto.MarshalPublicKey(&tee.PublicKey)
		resp, err := rA.RegisterDroneCtx(ctx, protocol.RegisterDroneRequest{OperatorPub: opPub, TEEPub: teePub})
		if err != nil {
			t.Fatal(err)
		}
		d := drone{id: resp.DroneID, keys: droneKeys{op: op, tee: tee}}
		trace := signedTrace(t, d.keys, urbana, 90, 10, 3, time.Second)
		sr, err := rA.SubmitPoACtx(ctx, protocol.SubmitPoARequest{
			DroneID: d.id, EncryptedPoA: encryptPoA(t, rA.EncryptionPub(), trace),
		})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Verdict != protocol.VerdictCompliant {
			t.Fatalf("pre-handoff submit: %q (%s)", sr.Verdict, sr.Reason)
		}
		drones = append(drones, d)
	}

	// Node B joins. Its own seed set lists both nodes, so its ring
	// already assigns it a share of A's drones.
	bCfg := RouterConfig{Self: nodeB, Seeds: []cluster.Node{nodeA, nodeB}, Shards: 2, StateDir: dirB, Server: serverCfg()}
	rB, err := NewRouter(bCfg)
	if err != nil {
		t.Fatal(err)
	}
	hsB := &httptest.Server{Listener: lisB, Config: &http.Server{Handler: NewHandler(rB)}}
	hsB.Start()

	// A learns of B and streams its shards over; rB checkpoints before
	// acknowledging.
	rA.Membership().Merge(cluster.Digest{From: nodeB, Entries: []cluster.DigestEntry{{Node: nodeB, Heartbeat: 1}}})
	if err := rA.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance to B: %v", err)
	}

	var moved []drone
	for _, d := range drones {
		if owner, ok := rB.Map().Owner(d.id); ok && owner.ID == nodeB.ID {
			moved = append(moved, d)
		}
	}
	if len(moved) == 0 {
		t.Fatal("ring moved no drones to node B; test needs a bigger fleet")
	}

	// Kill point: B dies the instant after the handoff ack — no further
	// WAL writes, no graceful shutdown.
	hsB.Close()
	if err := rB.Close(); err != nil {
		t.Fatal(err)
	}

	// B restarts from disk alone and must own the moved drones' state:
	// fresh submissions verify against the streamed registrations.
	rB2, err := NewRouter(bCfg)
	if err != nil {
		t.Fatalf("reopen node B: %v", err)
	}
	defer rB2.Close()
	for _, d := range moved {
		trace := signedTrace(t, d.keys, urbana.Offset(45, 300), 90, 12, 3, time.Second)
		sr, err := rB2.SubmitPoACtx(ctx, protocol.SubmitPoARequest{
			DroneID: d.id, EncryptedPoA: encryptPoA(t, rB2.EncryptionPub(), trace),
		})
		if err != nil {
			t.Fatalf("post-recovery submit for moved drone %s: %v", d.id, err)
		}
		if sr.Verdict != protocol.VerdictCompliant {
			t.Fatalf("post-recovery verdict for %s: %q (%s)", d.id, sr.Verdict, sr.Reason)
		}
	}
	// The retained PoAs moved with the drones (accusation evidence
	// survives the ownership change).
	if got := rB2.Status().RetainedPoAs; got < len(moved) {
		t.Errorf("retained after recovery = %d, want >= %d", got, len(moved))
	}
}

// TestClusterNodeDiesMidHandoff verifies the failure half of the
// protocol: a peer dying mid-transfer fails the rebalance loudly, the
// source keeps its copy, and a later retry (the peer recovered) streams
// the same state without duplicating anything.
func TestClusterNodeDiesMidHandoff(t *testing.T) {
	tc := newTestCluster(t, 2, 1, nil)
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()

	droneID, keys := tc.registerDrone(t, 0, rng)
	owner := tc.ownerIndex(t, droneID)
	peer := 1 - owner

	// The peer dies mid-handoff: its listener closes, the source's POST
	// fails, and Rebalance reports it.
	tc.servers[peer].Close()
	err := tc.routers[owner].Rebalance(ctx)
	if err == nil {
		t.Fatal("rebalance to a dead peer reported success")
	}

	// The source keeps serving the drone regardless.
	trace := signedTrace(t, keys, urbana, 90, 10, 3, time.Second)
	sr, err := tc.routers[owner].SubmitPoACtx(ctx, protocol.SubmitPoARequest{
		DroneID: droneID, EncryptedPoA: encryptPoA(t, tc.routers[0].EncryptionPub(), trace),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Verdict != protocol.VerdictCompliant {
		t.Fatalf("source verdict after failed handoff: %q (%s)", sr.Verdict, sr.Reason)
	}

	// Direct delivery (the transport retry) imports once; a duplicate
	// delivery of the same map version is dropped by the dedup guard.
	m := tc.routers[owner].Map()
	state, err := tc.routers[owner].exportHandoff()
	if err != nil {
		t.Fatal(err)
	}
	req := protocol.ClusterHandoffRequest{From: tc.nodes[owner].ID, MapVersion: m.Version, State: state}
	if err := tc.routers[peer].clusterHandoff(ctx, req); err != nil {
		t.Fatalf("handoff retry: %v", err)
	}
	retained := tc.routers[peer].Status().RetainedPoAs
	if err := tc.routers[peer].clusterHandoff(ctx, req); err != nil {
		t.Fatalf("duplicate handoff: %v", err)
	}
	if got := tc.routers[peer].Status().RetainedPoAs; got != retained {
		t.Errorf("duplicate handoff changed retained count: %d -> %d", retained, got)
	}
}

// TestClusterHandoffCarriesDisclosures pins the drift the one-schema
// handoff removed: a commit-mode drone's retained commitment moves with
// the drone, so an accusation raised on the new owner still finds it,
// challenges the operator, and the reveal settles the case there.
func TestClusterHandoffCarriesDisclosures(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ctx := context.Background()
	nodeA := cluster.Node{ID: "node-a", Addr: "127.0.0.1:1"} // never dialled
	nodeB := cluster.Node{ID: "node-b"}
	lisB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nodeB.Addr = lisB.Addr().String()
	encKey, err := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
	if err != nil {
		t.Fatal(err)
	}
	serverCfg := Config{Clock: obs.ClockFunc(func() time.Time { return t0 }), EncryptionKey: encKey}

	rA, err := NewRouter(RouterConfig{Self: nodeA, Shards: 2, Server: serverCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rA.Close()

	// Commit-mode drones upload on node A, the sole owner so far.
	type drone struct {
		id      string
		secrets *operator.DisclosureSecrets
	}
	var drones []drone
	for i := 0; i < 8; i++ {
		op, _ := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
		tee, _ := sigcrypto.GenerateKeyPair(rng, sigcrypto.KeySize1024)
		opPub, _ := sigcrypto.MarshalPublicKey(&op.PublicKey)
		teePub, _ := sigcrypto.MarshalPublicKey(&tee.PublicKey)
		reg, err := rA.RegisterDroneCtx(ctx, protocol.RegisterDroneRequest{
			OperatorPub: opPub, TEEPub: teePub, Disclosure: poa.DisclosureCommit,
		})
		if err != nil {
			t.Fatal(err)
		}
		keys := droneKeys{op: op, tee: tee}
		ct, sealed, otKeys := commitSubmission(t, rA.Shard(0), keys, signedTrace(t, keys, urbana, 0, 10, 10, time.Second))
		resp, err := rA.SubmitCommitPoACtx(ctx, protocol.SubmitCommitPoARequest{DroneID: reg.DroneID, EncryptedEnvelope: ct})
		if err != nil || resp.Verdict != protocol.VerdictCompliant {
			t.Fatalf("commit submit on A: %v / %+v", err, resp)
		}
		drones = append(drones, drone{reg.DroneID, &operator.DisclosureSecrets{Mode: poa.DisclosureCommit, Sealed: sealed, Keys: otKeys}})
	}
	// Registered after the uploads, so no envelope carries a predicate for
	// it and only a reveal can settle an accusation.
	zone, err := rA.RegisterZone(protocol.RegisterZoneRequest{
		Owner: "alice", Zone: geo.GeoCircle{Center: urbana.Offset(90, 5000), R: 100},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Node B joins and A hands over what the new ring gives B.
	rB, err := NewRouter(RouterConfig{Self: nodeB, Seeds: []cluster.Node{nodeA, nodeB}, Shards: 2, Server: serverCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer rB.Close()
	hsB := &httptest.Server{Listener: lisB, Config: &http.Server{Handler: NewHandler(rB)}}
	hsB.Start()
	defer hsB.Close()
	rA.Membership().Merge(cluster.Digest{From: nodeB, Entries: []cluster.DigestEntry{{Node: nodeB, Heartbeat: 1}}})
	if err := rA.Rebalance(ctx); err != nil {
		t.Fatalf("rebalance to B: %v", err)
	}

	moved := 0
	for _, d := range drones {
		if owner, ok := rB.Map().Owner(d.id); !ok || owner.ID != nodeB.ID {
			continue
		}
		moved++
		acc, err := rB.HandleAccusationCtx(ctx, d.id, zone.ZoneID, t0.Add(500*time.Millisecond))
		if err != nil {
			t.Fatalf("accusation on the new owner of %s: %v", d.id, err)
		}
		if acc.Verdict != protocol.VerdictDisclosureRequired || acc.Challenge == nil {
			t.Fatalf("accusation on the new owner = %+v, want disclosure-required with a challenge", acc)
		}
		reveal, err := d.secrets.Answer(*acc.Challenge)
		if err != nil {
			t.Fatal(err)
		}
		if final, err := rB.RevealCtx(ctx, reveal); err != nil || final.Verdict != protocol.VerdictCompliant {
			t.Fatalf("reveal on the new owner: %v / %+v", err, final)
		}
	}
	if moved == 0 {
		t.Fatal("ring moved no drones to node B; test needs a bigger fleet")
	}
}

// TestClusterHandoffOmitsKey captures the body a rebalance POSTs to a peer
// and checks the cluster's private PoA key is nowhere in it: joiners fetch
// the key once from /cluster/key, a handoff never repeats it — and a
// handoff that did carry one would be refused, not allowed to re-key.
func TestClusterHandoffOmitsKey(t *testing.T) {
	tc := newTestCluster(t, 1, 2, nil)
	ctx := context.Background()
	rA := tc.routers[0]
	if _, err := rA.RegisterZone(protocol.RegisterZoneRequest{Owner: "alice", Zone: geo.GeoCircle{Center: urbana, R: 100}}); err != nil {
		t.Fatal(err)
	}
	tc.registerDrone(t, 0, rand.New(rand.NewSource(8)))

	// The membership change below also triggers the router's own rebalance,
	// so a second handoff can reach the peer while the test reads the first.
	var (
		mu   sync.Mutex
		body []byte
	)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == protocol.PathClusterHandoff {
			got, _ := io.ReadAll(r.Body)
			mu.Lock()
			body = got
			mu.Unlock()
		}
		_, _ = w.Write([]byte("{}"))
	}))
	defer peer.Close()
	nodeB := cluster.Node{ID: "node-b", Addr: strings.TrimPrefix(peer.URL, "http://")}
	rA.Membership().Merge(cluster.Digest{From: nodeB, Entries: []cluster.DigestEntry{{Node: nodeB, Heartbeat: 1}}})
	if err := rA.Rebalance(ctx); err != nil {
		t.Fatal(err)
	}

	var req protocol.ClusterHandoffRequest
	mu.Lock()
	captured := body
	mu.Unlock()
	if err := json.Unmarshal(captured, &req); err != nil {
		t.Fatalf("captured handoff body: %v", err)
	}
	recs, err := storage.DecodeRecords(req.State)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 { // one drone, and the zone once per source shard
		t.Fatalf("handoff carries %d records, want the drone and the zones", len(recs))
	}
	priv, err := sigcrypto.MarshalPrivateKey(tc.encKey)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Kind == recEncKey || bytes.Contains(rec.Data, []byte(priv)) {
			t.Errorf("handoff record %d (%s) carries the PoA key pair", i, walKindName(rec.Kind))
		}
	}

	keyFrame, err := storage.EncodeRecords([]storage.Record{keyRecord(t, rA.Shard(0))})
	if err != nil {
		t.Fatal(err)
	}
	req.From, req.State = "node-b", append(req.State, keyFrame...)
	if err := rA.clusterHandoff(ctx, req); err == nil {
		t.Error("a handoff carrying a key record was imported")
	}
}

// TestClusterJoinerFetchesKeyFromSeed: a fresh joiner constructed
// without an encryption key learns the cluster-wide key from its seed,
// so drones registered anywhere decrypt everywhere.
func TestClusterJoinerFetchesKeyFromSeed(t *testing.T) {
	tc := newTestCluster(t, 1, 1, nil)
	self := cluster.Node{ID: "node-join", Addr: "127.0.0.1:1"}
	joiner, err := NewRouter(RouterConfig{
		Self:   self,
		Seeds:  append(append([]cluster.Node(nil), tc.nodes...), self),
		Server: Config{Clock: obs.ClockFunc(func() time.Time { return t0 })},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if !joiner.EncryptionPub().Equal(tc.routers[0].EncryptionPub()) {
		t.Fatal("joiner generated its own encryption key instead of fetching the cluster's")
	}
}

// TestClusterJoinerRefusesDivergentKey: a fresh joiner that cannot
// reach any seed must refuse to start rather than generate a key that
// diverges from the cluster's — forwarded submissions would fail to
// decrypt on every other node.
func TestClusterJoinerRefusesDivergentKey(t *testing.T) {
	_, err := NewRouter(RouterConfig{
		Self:             cluster.Node{ID: "node-join", Addr: "127.0.0.1:1"},
		Seeds:            []cluster.Node{{ID: "node-dead", Addr: "127.0.0.1:1"}},
		Server:           Config{Clock: obs.ClockFunc(func() time.Time { return t0 })},
		keyFetchAttempts: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "shared PoA key") {
		t.Fatalf("NewRouter with unreachable seeds: err = %v, want shared-key refusal", err)
	}
}
