package operator

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

// fakeNode is a scripted cluster node: it serves /cluster/map, /readyz
// and the submit door from canned behaviour so client routing is
// observable without a real auditor.
type fakeNode struct {
	t        *testing.T
	name     string
	ready    atomic.Bool
	mapJSON  atomic.Pointer[[]byte]
	submits  atomic.Int64
	onSubmit func(w http.ResponseWriter, droneID string)
	srv      *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	n := &fakeNode{t: t, name: name}
	n.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc(protocol.PathReadyz, func(w http.ResponseWriter, r *http.Request) {
		if !n.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(protocol.PathClusterMap, func(w http.ResponseWriter, r *http.Request) {
		if js := n.mapJSON.Load(); js != nil {
			w.Header().Set("Content-Type", "application/json")
			w.Write(*js)
			return
		}
		http.Error(w, "no map", http.StatusInternalServerError)
	})
	mux.HandleFunc(protocol.PathSubmitPoA, func(w http.ResponseWriter, r *http.Request) {
		n.submits.Add(1)
		n.onSubmit(w, r.URL.Query().Get(protocol.QueryDrone))
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

// addr returns host:port (the cluster.Node form).
func (n *fakeNode) addr() string { return strings.TrimPrefix(n.srv.URL, "http://") }

func (n *fakeNode) setMap(m *cluster.Map) {
	js, err := json.Marshal(m)
	if err != nil {
		n.t.Fatal(err)
	}
	n.mapJSON.Store(&js)
}

func compliantJSON(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(protocol.SubmitPoAResponse{Verdict: protocol.VerdictCompliant})
}

// clusterPair builds two fake nodes publishing a shared map and returns
// them with the owner of droneID listed first.
func clusterPair(t *testing.T, droneID string) (owner, other *fakeNode) {
	a := newFakeNode(t, "a")
	b := newFakeNode(t, "b")
	m := cluster.NewMap(2, 0, []cluster.Node{
		{ID: "node-a", Addr: a.addr()},
		{ID: "node-b", Addr: b.addr()},
	})
	a.setMap(m)
	b.setMap(m)
	own, ok := m.Owner(droneID)
	if !ok {
		t.Fatal("no owner")
	}
	if own.ID == "node-a" {
		return a, b
	}
	return b, a
}

// TestClusterAuditorRoutesToOwner: with a fresh map the client sends the
// submission straight to the owning node — zero traffic anywhere else.
func TestClusterAuditorRoutesToOwner(t *testing.T) {
	const droneID = "drone-route-test"
	owner, other := clusterPair(t, droneID)
	owner.onSubmit = func(w http.ResponseWriter, id string) { compliantJSON(w) }
	other.onSubmit = func(w http.ResponseWriter, id string) {
		t.Errorf("submission reached non-owner node %s", other.name)
		compliantJSON(w)
	}

	c := NewClusterAuditor([]string{owner.srv.URL}, nil)
	resp, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %q", resp.Verdict)
	}
	if owner.submits.Load() != 1 || other.submits.Load() != 0 {
		t.Fatalf("submits owner=%d other=%d, want 1/0", owner.submits.Load(), other.submits.Load())
	}
}

// TestClusterAuditorStaleMapReroute: a client whose injected map names
// the wrong owner gets 421 back, refreshes, and lands the retry on the
// true owner — one extra round trip, no failure surfaced to the caller.
func TestClusterAuditorStaleMapReroute(t *testing.T) {
	const droneID = "drone-stale-map"
	owner, other := clusterPair(t, droneID)
	owner.onSubmit = func(w http.ResponseWriter, id string) { compliantJSON(w) }
	other.onSubmit = func(w http.ResponseWriter, id string) {
		// A cluster node that does not own the drone and cannot forward
		// answers 421 (single-hop guard).
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMisdirectedRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "misrouted"})
	}

	c := NewClusterAuditor([]string{owner.srv.URL, other.srv.URL}, nil)
	// Stale map: only the non-owner exists, so the first attempt goes
	// there and is bounced.
	c.injectMap(cluster.NewMap(1, 0, []cluster.Node{{ID: "stale-node", Addr: other.addr()}}))

	resp, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID})
	if err != nil {
		t.Fatalf("stale-map submit: %v", err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %q", resp.Verdict)
	}
	if other.submits.Load() != 1 {
		t.Fatalf("non-owner saw %d submissions, want the 1 bounced attempt", other.submits.Load())
	}
	if owner.submits.Load() != 1 {
		t.Fatalf("owner saw %d submissions, want the 1 rerouted retry", owner.submits.Load())
	}
	if got := c.MapVersion(); got != 2 {
		t.Errorf("client map version after refresh = %d, want 2", got)
	}
}

// TestClusterAuditorSkipsNotReady: a non-ready owner is a redial target,
// not a routing destination — the client prefers a ready node and lets
// the cluster forward.
func TestClusterAuditorSkipsNotReady(t *testing.T) {
	const droneID = "drone-ready-test"
	owner, other := clusterPair(t, droneID)
	owner.ready.Store(false)
	owner.onSubmit = func(w http.ResponseWriter, id string) {
		t.Error("submission reached the non-ready owner")
		compliantJSON(w)
	}
	other.onSubmit = func(w http.ResponseWriter, id string) {
		// The ready non-owner forwards cluster-side and answers.
		compliantJSON(w)
	}

	c := NewClusterAuditor([]string{other.srv.URL}, nil)
	resp, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %q", resp.Verdict)
	}
	if other.submits.Load() != 1 || owner.submits.Load() != 0 {
		t.Fatalf("submits other=%d owner=%d, want 1/0", other.submits.Load(), owner.submits.Load())
	}
}

// TestClusterAuditorDeadNodeFailover: an owner dropping off the network
// entirely is caught by the readiness probe, and the call lands on the
// survivor without surfacing an error.
func TestClusterAuditorDeadNodeFailover(t *testing.T) {
	const droneID = "drone-dead-node"
	owner, other := clusterPair(t, droneID)
	owner.onSubmit = func(w http.ResponseWriter, id string) { compliantJSON(w) }
	other.onSubmit = func(w http.ResponseWriter, id string) { compliantJSON(w) }

	c := NewClusterAuditor([]string{owner.srv.URL, other.srv.URL}, nil)
	if err := c.RefreshMap(); err != nil {
		t.Fatal(err)
	}
	// The owner dies; the survivor publishes a map without it.
	owner.srv.Close()
	other.setMap(cluster.NewMap(3, 0, []cluster.Node{{ID: "node-b", Addr: other.addr()}}))

	resp, err := c.SubmitPoA(protocol.SubmitPoARequest{DroneID: droneID})
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	if resp.Verdict != protocol.VerdictCompliant {
		t.Fatalf("verdict = %q", resp.Verdict)
	}
	if other.submits.Load() != 1 {
		t.Fatalf("survivor saw %d submissions, want 1", other.submits.Load())
	}
}

func TestStatusErrorShape(t *testing.T) {
	err := error(&StatusError{Path: "/v1/submit", Code: 421, Msg: "misrouted"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusMisdirectedRequest {
		t.Fatal("StatusError lost its code through errors.As")
	}
	if want := "auditor /v1/submit: misrouted (HTTP 421)"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	if want := "auditor /v1/submit: HTTP 500"; (&StatusError{Path: "/v1/submit", Code: 500}).Error() != want {
		t.Errorf("bodyless Error() mismatch")
	}
}
